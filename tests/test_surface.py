"""The library's imports and public surface, read from source with ast.

Nothing here imports or runs the library.  Every module-level import of
src/slowlight must be used in its module, and the public top-level names that
nothing in src/ or perfbench/ reads must be exactly the listed ones, so a new
public name that only tests call is added to UNREAD on purpose, with its
reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "slowlight"

# public top-level names of src/slowlight that no code in src/ or perfbench/
# reads, with the ROADMAP direction that gives each a consumer or its role
# for the tests
UNREAD = {
    "dynamics.end_reflection",          # closed-form oracle
    "dynamics.taper_echo_train",        # closed-form oracle
    "dynamics.taper_transmittance",     # closed-form oracle
    "dynamics.mirror_scatter",          # Direction 6: run report
    "dynamics.pulse_bandwidth",         # Direction 6: run report
    "dynamics.transmitted_fraction",    # Direction 6: run report
    "noise.READOUT_FIDELITY",           # Direction 9: readout model
    "noise.confuse_readout",            # Direction 9: readout model
    "noise.depolarizing_kraus",         # test oracle: Kraus form of the control depolarizer
    "noise.echo_envelope",              # closed-form oracle: refocused dephasing
    "noise.ramsey_envelope",            # closed-form oracle: the envelope calibration solves for
    "protocol.fidelity",                # test oracle: fidelity of mixed state inputs
    "protocol.schedule_times",          # Direction 12: delay-line schedule check
    "protocol.total_duration",          # Direction 12: delay-line schedule check
    "protocol.stabilizer_expectations",  # Direction 6: run report
    "protocol.virtual_z_sweep",         # Direction 6: run report
    "protocol.target_graph",            # test oracle: the published targets' graphs
    "qops.graph_state",                 # closed-form oracle
    "qops.moment_operator",             # test oracle: dense rows of the sparse moment design
    "shots.bandwidth_gain_split",       # test oracle: gain for estimate_moments from two tables
    "shots.two_photon_moment",          # Direction 6: run report
    "tomography.moment_objective",      # test oracle: the state fit's objective
    "tomography.moments_from_state",    # test oracle: exact moment tables
    "tomography.resample_moments",      # test oracle: replica tables for the coverage tests
    "tomography.project_cptp",          # Direction 11: entry point of the CPTP projection
    "waveguide.dispersion",             # closed-form oracle: the band's dispersion
    "waveguide.gamma_1d",               # closed-form oracle: Markovian emission rate
}


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _loads(tree) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _public_names(tree) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def _references(tree) -> set:
    """(layer, name) pairs a module reads from slowlight's layers: names it
    imports from a layer, and attributes it reads off an imported layer."""
    layers = {}
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("slowlight."):
                module = module.split(".", 1)[1]
            elif module == "slowlight" or (node.level and not module):
                # `from slowlight import noise` binds the layer itself
                layers.update((alias.asname or alias.name, alias.name) for alias in node.names)
                continue
            elif not node.level:
                continue
            refs.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            layers.update((alias.asname, alias.name.split(".", 1)[1]) for alias in node.names
                          if alias.asname and alias.name.startswith("slowlight."))
    refs.update((layers[node.value.id], node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in layers)
    return refs


def test_module_level_imports_are_used():
    unused = []
    for name, tree in _modules().items():
        loads = _loads(tree)
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused.extend(f"{name}: {b}" for b in bound if b not in loads)
    assert not unused, unused


def test_unread_public_names_are_the_listed_ones():
    """A name counts as read when another layer or a perfbench module
    imports it or reads it off its layer, or its own module uses it."""
    modules = _modules()
    refs = set()
    for tree in modules.values():
        refs |= _references(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        refs |= _references(ast.parse(path.read_text(), str(path)))
    unread = set()
    for name, tree in modules.items():
        loads = _loads(tree)
        unread.update(f"{name}.{public}" for public in _public_names(tree)
                      if (name, public) not in refs and public not in loads)
    assert unread - UNREAD == set(), "public names nothing reads; list them with a reason or delete them"
    assert UNREAD - unread == set(), "listed names are read now; take them off the list"
