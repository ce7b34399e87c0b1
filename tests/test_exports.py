import ast
import types
from pathlib import Path

import bouligand_landweber

PACKAGE = Path(bouligand_landweber.__file__).parent

# every name the package exported when __all__ was a hand-written list, less the
# deleted relative_error and source_guess (exact_fields forms u_bar)
EXPORTED = {
    "AdjointReport", "ConvergenceError", "DegeneratePairError", "ForwardProblem",
    "ForwardSolution", "ForwardSolveError", "GridFunction", "LandweberConfig",
    "LinearizedOperator", "Mesh", "NoiseSpec", "OracleReport", "ParameterCheck", "PositivePart",
    "RunRecord", "SpdSystem", "TCCEstimate", "TCCSurvey", "add_noise", "adjoint_check",
    "apply_subderivative", "assemble", "assemble_full", "brute_force_forward",
    "build_linearized", "build_mesh", "check_parameters", "consistency_residuals",
    "empirical_rate", "exact_fields", "exact_source", "exact_state", "forward_residual",
    "interpolate", "m_inner", "m_norm", "mismatch_measure", "oracle_sweep",
    "poisson_preconditioner", "read_grid_function", "read_table_csv", "run",
    "run_noise_free", "run_noisy", "run_table", "solve_forward", "solve_spd",
    "tcc_ratio", "tcc_survey", "write_grid_function", "write_table_csv",
}


def test_all_lists_the_public_names_once():
    names = bouligand_landweber.__all__
    assert len(names) == len(set(names))
    assert not [name for name in names if name.startswith("_")]
    assert not [
        name for name in names
        if isinstance(getattr(bouligand_landweber, name), types.ModuleType)
    ]
    assert set(names) == EXPORTED and len(EXPORTED) == 51
    namespace = {}
    exec("from bouligand_landweber import *", namespace)  # every entry resolves
    assert EXPORTED <= namespace.keys()


def _package_imports(path):
    """(module, name) of each import of a package module in the source file `path`.

    `from . import x` gives (x, None), `from .m import x` gives (m, x).
    """
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:  # absolute: a package module only under the package's name
            top, _, module = module.partition(".")
            if top != PACKAGE.name:
                continue
        for alias in node.names:
            yield (module, alias.name) if module else (alias.name, None)


def test_no_module_imports_a_private_name_and_formats_sits_at_the_bottom():
    private, formats = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for module, name in _package_imports(path):
            if module.startswith("_") or (name or "").startswith("_"):
                private.append(f"{path.name}: {module}.{name}")
            if path.stem == "formats":
                formats.add(module)
    assert not private
    assert formats == {"sparse_linalg"}
