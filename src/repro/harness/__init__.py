"""Experiment harness: one module per paper table/figure.

Each experiment in :mod:`repro.harness.experiments` regenerates the rows
or series of one artifact from the thesis's evaluation, at two scales:

* ``quick`` — minutes on a laptop; same machine *shapes*, smaller
  problems (used by the benchmark suite and CI);
* ``paper`` — the thesis's own problem sizes and thread counts.

Run everything from the command line::

    python -m repro.harness --list
    python -m repro.harness t3_1 f3_3 --scale quick
    python -m repro.harness --all --scale quick --out results.md

Every experiment carries the paper's reported numbers and a
``check_shape`` that asserts the qualitative findings (who wins, rough
factors, crossover locations) hold in the reproduction.
"""

from repro.harness.reporting import ExperimentResult, format_series, format_table
from repro.harness.runner import EXPERIMENTS, Experiment, get_experiment, run_experiment

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "format_series",
    "format_table",
    "get_experiment",
    "run_experiment",
]

from repro.harness.campaign import Campaign  # noqa: E402
from repro.harness.cache import ResultCache  # noqa: E402
from repro.harness.chaos import ChaosPlan  # noqa: E402
from repro.harness.executor import ExecutorError, InlineExecutor  # noqa: E402
from repro.harness.journal import CampaignJournal, campaign_fingerprint  # noqa: E402
from repro.harness.queue import QueueExecutor  # noqa: E402
from repro.harness.spec import RunSpec, Sweep, threads_per_node  # noqa: E402

__all__ += [
    "Campaign",
    "CampaignJournal",
    "ChaosPlan",
    "ExecutorError",
    "InlineExecutor",
    "QueueExecutor",
    "ResultCache",
    "RunSpec",
    "Sweep",
    "campaign_fingerprint",
    "threads_per_node",
]
