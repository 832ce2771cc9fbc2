"""The 15 scheduling algorithms benchmarked in the paper.

Importing this package registers every algorithm; look them up with
:func:`get_scheduler` or enumerate with :func:`list_schedulers`.

==========  =====  =========================================
Acronym     Class  Origin
==========  =====  =========================================
HLFET       BNP    Adam, Chandy & Dickson (1974)
ISH         BNP    Kruatrachue & Lewis (1987)
MCP         BNP    Wu & Gajski (1990)
ETF         BNP    Hwang, Chow, Anger & Lee (1989)
DLS         BNP    Sih & Lee (1993)
LAST        BNP    Baxter & Patel (1989)
EZ          UNC    Sarkar (1989)
LC          UNC    Kim & Browne (1988)
DSC         UNC    Yang & Gerasoulis (1994)
MD          UNC    Wu & Gajski (1990)
DCP         UNC    Kwok & Ahmad (1996)
MH          APN    El-Rewini & Lewis (1990)
DLS-APN     APN    Sih & Lee (1993)
BU          APN    Mehdiratta & Ghose (1994)
BSA         APN    Kwok & Ahmad (1995)
==========  =====  =========================================

The six BNP rows are named points of a component space (see
:mod:`repro.algorithms.components`): each acronym resolves to the
one parameterized list scheduler running its spec.  Beyond the 15
names, :func:`get_scheduler` also accepts ``param:`` component spec
strings (``"param:prio=blevel,ready=prio,proc=etf,insert=off"``) that
synthesize a BNP list scheduler from any combination of components.
"""

from .base import (
    SCHEDULER_CLASSES,
    Scheduler,
    get_scheduler,
    list_schedulers,
    register,
)
from . import unc, apn  # noqa: F401  (imports register the algorithms)
from .components import BNP_SPECS, ParamScheduler, SchedulerSpec, parse_spec
from .apn import BSA, BU, DLSAPN, MH, cpn_dominant_list, simulate_on_network
from .mapping import (
    mapping_makespan,
    schedule_from_mapping,
    simulate_fixed_sequences,
)
from .unc import DCP, DSC, EZ, LC, MD

__all__ = [
    "Scheduler",
    "register",
    "get_scheduler",
    "list_schedulers",
    "SCHEDULER_CLASSES",
    "BNP_SPECS",
    "ParamScheduler",
    "SchedulerSpec",
    "parse_spec",
    "EZ",
    "LC",
    "DSC",
    "MD",
    "DCP",
    "MH",
    "DLSAPN",
    "BU",
    "BSA",
    "cpn_dominant_list",
    "simulate_on_network",
    "mapping_makespan",
    "schedule_from_mapping",
    "simulate_fixed_sequences",
]
