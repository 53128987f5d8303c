"""Keep ``src/`` to what runs.

A public module-level function in ``src/repro`` must be named
somewhere in ``src/``, ``examples/``, ``benchmarks/`` or ``scripts/``
outside its own module and its package ``__init__`` (which only
re-exports it).  Names in ``tests/`` do not count: a function only a
test calls is dead code with a test.  Each kept exception is listed in
:data:`KEPT` with its reason.  Classes are not scanned; the ones
nothing else names are mostly types that functions return.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, Set

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SCANNED = ("src", "examples", "benchmarks", "scripts")

#: Dotted name -> why it stays public although nothing outside its
#: module names it.
KEPT = {
    "repro.analysis.fitting.r_squared":
        "computes FitResult.r2 for fit_polynomial and fit_exponential",
    "repro.analysis.radar.dominates":
        "the Pareto test behind pareto_front (Tab. I / Fig. 4 radar)",
    "repro.core.bounds.value_difference_bound":
        "Eq. (10) bound arithmetic, kept whole beside verify_value_bound, "
        "which examples/mdp_playground.py runs",
    "repro.core.bounds.competitiveness_factor":
        "Eq. (10) bound arithmetic, kept whole beside verify_value_bound",
    "repro.core.bounds.verify_action_bound":
        "the action-distance half of Eq. (10), kept whole beside "
        "verify_value_bound",
    "repro.device.states.enumerate_states":
        "the paper's Fig. 7 device-state space (96 states); deleting it "
        "takes tests/test_states.py's enumeration checks with it",
    "repro.obs.configure": "turns observability on: the obs entry point",
    "repro.obs.disable": "turns observability off: the obs entry point",
    "repro.obs.enabled": "whether observability is on: the obs entry point",
    "repro.obs.export.format_obs_table":
        "renders ObsSession.summary's tables in the obs package",
    "repro.obs.telemetry.invisible_view":
        "the obs-free view the obs-invisibility harness compares results "
        "through",
    "repro.service.app.protocol_secret":
        "reads the bearer-token secret for the service's HTTP server",
    "repro.service.app.results_length":
        "announces GET /jobs/{id}/results' Content-Length in the handler",
    "repro.service.app.results_chunks":
        "streams the GET /jobs/{id}/results body in the handler",
    "repro.service.schemas.parse_policy": "parse_spec's policy-axis parser",
    "repro.service.schemas.parse_trace": "parse_spec's trace-axis parser",
}


def _names(path: Path) -> Set[str]:
    """Every identifier ``path`` names: variables, attributes, imported
    names and identifier-shaped strings (``getattr``-style lookups)."""
    out: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out.add(node.value)
    return out


def _public_functions(module: Path) -> Iterator[str]:
    for node in ast.parse(module.read_text(), str(module)).body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")):
            yield node.name


def _dotted(module: Path) -> str:
    parts = module.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _unnamed() -> Dict[str, Path]:
    """Dotted name -> module of each public function named nowhere
    outside its own module and its package ``__init__``."""
    named = {path: _names(path) for top in SCANNED
             for path in sorted((ROOT / top).rglob("*.py"))}
    out: Dict[str, Path] = {}
    for module in sorted(SRC.rglob("*.py")):
        own = (module, module.parent / "__init__.py")
        for name in _public_functions(module):
            if not any(name in names for path, names in named.items()
                       if path not in own):
                out[f"{_dotted(module)}.{name}"] = module
    return out


def test_every_public_function_is_named_outside_its_module():
    unnamed = _unnamed()
    dead = sorted(set(unnamed) - set(KEPT))
    assert not dead, (
        f"public functions nothing outside their module names: {dead}; "
        f"delete them (with tests that check only them), make them "
        f"private, or list them in KEPT with a reason")
    stale = sorted(set(KEPT) - set(unnamed))
    assert not stale, f"KEPT lists names that are now named or gone: {stale}"
