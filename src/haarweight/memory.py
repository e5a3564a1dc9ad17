"""The memory model of the refusals: each kernel that allocates per leaf
states its need beside its code, a command adds its own leaf arrays, and
``refuse_beyond_memory`` refuses a run by the largest need before any work."""

import os

from .dyadic import leaf_count
from .errors import ConfigError

# bytes per leaf of each command's leaf arrays: its peak RSS growth per leaf
# between two depths (os.wait4 ru_maxrss, one BLAS thread, d = 1, p = 2 where
# it reads p), rounded down so that no run that fits is refused
LEAF_ARRAY_BYTES = {"apchar": 710, "opnorm": 370, "bmo primal": 610, "bmo dual": 630,
                    "bmo unweighted": 270, "carleson": 590, "stopping": 460, "sparse": 12,
                    "counterexample paraproduct": 270, "equivalence": 2250}


def leaf_arrays(command, d, L):
    """The (what, bytes) need of ``command``'s leaf arrays on the grid."""
    return "its leaf arrays", LEAF_ARRAY_BYTES[command] * leaf_count(d, L)


def refuse_beyond_memory(who, needs):
    """Raise ConfigError before any work when the largest of the (what,
    bytes) ``needs`` of what ``who`` runs exceeds the physical memory."""
    what, need = max(needs, key=lambda pair: pair[1])
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(f"{who} needs about {need / 2**30:.3g} GiB for {what}, "
                          f"more than the {have / 2**30:.3g} GiB of physical memory")
