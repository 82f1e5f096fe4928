"""Comparator schedulers (paper §6, Related Works + PAPERS.md).

YARN-like, Mesos-like, Hadoop-1.0-like, HFSP-style size-based and
DFRS-style fractional scheduling, each a
:class:`repro.core.policy.SchedulerPolicy` plug-in
(:mod:`repro.baselines.policies`) on the *same* fit-indexed pool /
ledger / digest-sync substrate as Fuxi.  Select them by name:
``RunSpec(policy="yarn")``, ``ClusterBuilder(...).policy("mesos")``,
``fuxi-sim ... --policy``; or pass an instance straight to
``FuxiScheduler(policy=YarnPolicy())``, as the design ablations do.  The
arena benchmark (``benchmarks/bench_arena.py`` → ``BENCH_arena.json``)
stages all six policies on identical seeds.
"""

from repro.baselines.policies import (FractionalPolicy, Hadoop10Policy,
                                      MesosPolicy, SizeBasedPolicy,
                                      YarnPolicy)

__all__ = [
    "YarnPolicy",
    "MesosPolicy",
    "Hadoop10Policy",
    "SizeBasedPolicy",
    "FractionalPolicy",
]
