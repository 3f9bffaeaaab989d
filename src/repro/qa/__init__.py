"""``repro.qa`` — conformance tooling for the algorithm zoo.

The paper's central claim is an *equivalence* (Lemma 3.1, Table 1):
APSP/MCB computed through the ear-reduced graph ``G^r`` — chain
re-expansion, block-cut-tree composition, multigraph parallel edges and
self-loops included — must match the same computation on ``G``.  This
package is the machinery that keeps every implementation honest about it:

* :mod:`repro.qa.strategies` — deterministic adversarial generators and
  hypothesis strategies for the structures where the equivalence is
  fragile (long degree-2 chains, bridges, parallel edges, ties).
* :mod:`repro.qa.differential` — a registry of every APSP/MCB
  implementation plus a differential-oracle runner that cross-checks them
  pairwise on generated graphs and serializes any disagreeing graph for
  replay.
* :mod:`repro.qa.invariants` — checkable contracts (chain weight
  preservation, maximal reduction, GF(2) basis independence) wired into
  the library behind the ``REPRO_CHECK_INVARIANTS`` env knob.
"""

from importlib import import_module

# Attribute → submodule map, resolved lazily (PEP 562).  The invariant
# hooks embedded in the decomposition/MCB modules import ``repro.qa``
# submodules at call time; keeping this package façade lazy means those
# hooks never drag the full registry (and with it every APSP/MCB module)
# into an import cycle or onto a cold path's import bill.
_EXPORTS = {
    "differential": (
        "APSP_REGISTRY",
        "MCB_REGISTRY",
        "DifferentialReport",
        "Disagreement",
        "Implementation",
        "matrices_agree",
        "register_apsp",
        "register_mcb",
        "run_apsp_differential",
        "run_mcb_differential",
        "run_suite",
    ),
    "invariants": (
        "InvariantViolation",
        "check_cycle_basis",
        "check_reduction",
        "invariants_enabled",
    ),
    "strategies": ("adversarial_corpus", "corpus", "graph_strategy", "random_corpus"),
}
_ATTR_TO_MODULE = {
    attr: mod for mod, attrs in _EXPORTS.items() for attr in attrs
}


def __getattr__(name: str):
    if name in _ATTR_TO_MODULE:
        module = import_module(f".{_ATTR_TO_MODULE[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "APSP_REGISTRY",
    "MCB_REGISTRY",
    "DifferentialReport",
    "Disagreement",
    "Implementation",
    "matrices_agree",
    "register_apsp",
    "register_mcb",
    "run_apsp_differential",
    "run_mcb_differential",
    "run_suite",
    "InvariantViolation",
    "check_cycle_basis",
    "check_reduction",
    "invariants_enabled",
    "adversarial_corpus",
    "corpus",
    "graph_strategy",
    "random_corpus",
]
