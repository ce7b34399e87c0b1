import types

import bouligand_landweber

# every name the package exported when __all__ was a hand-written list, less the
# deleted relative_error
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
    "run_noise_free", "run_noisy", "run_table", "solve_forward", "solve_spd", "source_guess",
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
    assert set(names) == EXPORTED and len(EXPORTED) == 52
    namespace = {}
    exec("from bouligand_landweber import *", namespace)  # every entry resolves
    assert EXPORTED <= namespace.keys()
