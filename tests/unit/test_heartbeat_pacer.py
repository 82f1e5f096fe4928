"""The heartbeat pacer: one loop event per cohort of agents beating at
the same instant, with one counted event per beat."""

import pytest

from repro.api import RunSpec, simulate
from repro.cluster.machine import MachineSpec, MachineState
from repro.cluster.network import MessageBus, NetworkConfig
from repro.core import messages as msg
from repro.core.agent import FuxiAgent, FuxiAgentConfig, HeartbeatPacer
from repro.core.resources import ResourceVector
from repro.sim.actor import Actor
from repro.sim.events import EventLoop
from repro.sim.rng import SplitRandom


class Master(Actor):
    """Records every heartbeat it receives as (time, machine)."""

    def __init__(self, loop, bus):
        super().__init__(loop, "fuxi-master", bus)
        self.beats = []

    def handle_message(self, sender, message):
        if isinstance(message, msg.AgentHeartbeat):
            self.beats.append((self.loop.now, message.machine))


def make_agents(count, pacer=True):
    loop = EventLoop()
    bus = MessageBus(loop, SplitRandom(0), NetworkConfig(jitter=0.0))
    master = Master(loop, bus)
    shared = HeartbeatPacer(loop) if pacer else None
    agents = [FuxiAgent(loop, bus, MachineState(spec=MachineSpec(
                  f"m{i}", "r0", ResourceVector.of(cpu=100, memory=1024))),
                  FuxiAgentConfig(), pacer=shared)
              for i in range(count)]
    return loop, master, agents


def beats_of(master, machine):
    return [round(t, 3) for t, m in master.beats if m == machine]


def test_agents_share_one_pacer_event_per_instant():
    loop, master, agents = make_agents(3)
    loop.run_until(0.5)  # the immediate start-up beats
    assert loop.pending() == 1  # the cohort at 1.0, nothing per agent
    loop.run_until(3.5)
    for agent in agents:
        assert beats_of(master, agent.machine) == [0.001, 1.001, 2.001,
                                                   3.001]


def test_events_executed_equals_the_beats_sent():
    loop, master, agents = make_agents(4)
    loop.run_until(5.5)
    assert len(master.beats) == 4 * 6
    assert loop.events_executed == 2 * len(master.beats)  # beat + delivery


def test_crash_between_beats_stops_beats_and_their_count():
    loop, master, agents = make_agents(3)
    loop.run_until(2.5)
    executed = loop.events_executed
    agents[1].crash()
    loop.run_until(5.5)
    assert beats_of(master, "m1") == [0.001, 1.001, 2.001]
    assert beats_of(master, "m0")[-1] == 5.001
    # three beats (and three deliveries) per second from the two survivors
    assert loop.events_executed - executed == 3 * 2 * 2


def test_crash_and_restart_before_the_next_beat_registers_once():
    # The stale cohort entry of the crashed incarnation must not beat too.
    loop, master, agents = make_agents(1)
    loop.run_until(1.2)
    agents[0].crash()
    agents[0].restart()
    loop.run_until(3.5)
    assert beats_of(master, "m0") == [0.001, 1.001, 1.201, 2.201, 3.201]


def test_machine_restart_rejoins_at_its_new_phase():
    loop, master, agents = make_agents(2)
    loop.call_at(1.5, agents[1].crash)
    loop.call_at(2.25, agents[1].restart)
    loop.run_until(5.0)
    assert beats_of(master, "m1") == [0.001, 1.001, 2.251, 3.251, 4.251]
    assert beats_of(master, "m0") == [0.001, 1.001, 2.001, 3.001, 4.001]


def test_agent_without_a_pacer_gets_a_private_one():
    loop, master, agents = make_agents(2, pacer=False)
    assert agents[0].pacer is not agents[1].pacer
    loop.run_until(2.5)
    assert len(master.beats) == 6


def test_hooks_see_each_beat_as_one_event():
    loop, master, agents = make_agents(3)
    labels = []
    loop.add_hook(lambda lp, event, wall: labels.append(
        getattr(event.callback, "__name__", "")))
    loop.run_until(1.0)
    assert labels[-3:] == ["_send_heartbeat"] * 3
    assert len(labels) == loop.events_executed


# --------------------------------------------------------------------- #
# reference: every agent owns a periodic timer (the pre-pacer design)
# --------------------------------------------------------------------- #

class PerAgentTimers:
    """Drop-in for HeartbeatPacer that arms one periodic timer per agent."""

    def __init__(self, loop):
        self.loop = loop

    def register(self, agent, interval):
        agent.set_periodic_timer("heartbeat", interval,
                                 agent._send_heartbeat)


PLAN = ("NodeDown@7:r01m003;NodeDown@9.5:r03m008;MachineRestart@12:r01m003;"
        "MachineRestart@13.5:r03m008;NodeDown@16.5:r02m001;"
        "AgentRestart@17:r04m002;MachineRestart@18.5:r02m001")


def _heartbeat_run(monkeypatch, pacer_class):
    monkeypatch.setattr("repro._runtime.HeartbeatPacer", pacer_class)
    delivered = []
    original = Actor.deliver

    def recording_deliver(actor, sender, message):
        if isinstance(message, msg.AgentHeartbeat):
            delivered.append((actor.loop.now, sender, message.book_digest,
                              message.book_version))
        original(actor, sender, message)

    monkeypatch.setattr(Actor, "deliver", recording_deliver)
    result = simulate(RunSpec(racks=5, machines_per_rack=10,
                              concurrent_jobs=8, duration=24, seed=11,
                              fault_spec=PLAN))
    monkeypatch.undo()
    return delivered, result.summary_dict()


def test_pacer_delivers_the_same_heartbeats_as_per_agent_timers(
        monkeypatch):
    reference, ref_summary = _heartbeat_run(monkeypatch, PerAgentTimers)
    paced, summary = _heartbeat_run(monkeypatch, HeartbeatPacer)
    assert len(reference) > 50 * 20
    assert paced == reference
    assert summary == ref_summary


@pytest.mark.parametrize("interval", [0.5, 0.3])
def test_mixed_intervals_keep_their_own_phase(interval):
    loop = EventLoop()
    bus = MessageBus(loop, SplitRandom(0), NetworkConfig(jitter=0.0))
    master = Master(loop, bus)
    pacer = HeartbeatPacer(loop)
    for name, every in (("fast", interval), ("slow", 1.0)):
        FuxiAgent(loop, bus, MachineState(spec=MachineSpec(
            name, "r0", ResourceVector.of(cpu=100, memory=1024))),
            FuxiAgentConfig(heartbeat_interval=every), pacer=pacer)
    loop.run_until(2.05)
    fast = len(beats_of(master, "fast"))
    assert fast == 1 + int(2.0 / interval + 1e-9)
    assert len(beats_of(master, "slow")) == 3
