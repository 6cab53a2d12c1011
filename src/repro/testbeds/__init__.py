"""Testbed environments: VanLAN, DieselNet, and their trace formats.

The paper's results come from two vehicular testbeds: VanLAN (eleven
basestations on the Microsoft campus in Redmond; live deployment) and
DieselNet (buses in Amherst logging beacons from town basestations;
trace-driven simulation).  We do not have the physical testbeds or the
original traces, so this package provides *synthetic* equivalents built
on the radio substrate, generating the same artifacts the paper's
pipeline consumes:

* **probe traces** (:class:`~repro.testbeds.traces.ProbeTrace`) — the
  Section 3.1 methodology: every node broadcasts a 500-byte packet at
  1 Mbps every 100 ms, and all receptions are logged;
* **beacon logs** (:class:`~repro.testbeds.traces.BeaconLog`) — the
  DieselNet methodology: a vehicle logs beacons heard from every
  basestation, reduced to per-second reception counts.

The substitution keeps the Section 3.4 properties the analysis rests
on — losses bursty within a link, roughly independent across
basestations, several basestations in range — which
``tests/test_testbeds_environments.py`` checks.
"""

from repro.testbeds.dieselnet import DieselNetTestbed
from repro.testbeds.layout import Deployment
from repro.testbeds.lossmap import (
    build_link_table_from_log,
    interbs_loss_rates,
    loss_rate_series,
)
from repro.testbeds.traces import BeaconLog, ProbeTrace
from repro.testbeds.vanlan import VanLanTestbed

__all__ = [
    "BeaconLog",
    "Deployment",
    "DieselNetTestbed",
    "ProbeTrace",
    "VanLanTestbed",
    "build_link_table_from_log",
    "interbs_loss_rates",
    "loss_rate_series",
]
