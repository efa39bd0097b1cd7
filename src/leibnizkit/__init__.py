"""Exact-arithmetic toolkit for Leibniz algebras: structure-constant algebras
and representations, Kupershmidt/Rota-Baxter/Nijenhuis operator checks, the
graded cochain bracket with Maurer-Cartan machinery, Yang-Baxter tensors and
coupled form structures, finite-field search, and a batch CLI over a bundled
instance catalog.

Every name in ``__all__`` loads on first use: ``import leibnizkit`` imports
no submodule, and ``leibnizkit.X`` imports the module that defines ``X`` and
returns that module's object, so a command pays only for the code it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> defining submodule
_EXPORTS = {
    **dict.fromkeys((
        "LeibnizAlgebra", "Representation", "check_leibniz", "check_representation",
        "dual_representation", "regular_representation",
    ), "algebras"),
    **dict.fromkeys((
        "Cochain", "balavoine_bracket", "bracket_square", "check_maurer_cartan",
        "coboundary", "dgla_bracket", "dual_kn_from_mc", "mc_from_dual_kn", "theta_twist",
        "tilde_varrho_bracket",
    ), "dgla"),
    **dict.fromkeys((
        "RATIONALS", "FieldSpec", "prime_field",
    ), "fields"),
    **dict.fromkeys((
        "BilinearForm", "Tensor2", "check_bn_structure", "check_quadratic",
        "check_rbn_structure", "check_rn_structure", "check_ybe", "rbn_rn_transfer",
        "sharp_map",
    ), "forms"),
    **dict.fromkeys((
        "LinearOperator", "LinearSolution", "Matrix", "mat_inverse", "mat_mul", "solve_linear",
    ), "linalg"),
    **dict.fromkeys((
        "as_operator", "check_compatible",
        "check_kupershmidt", "check_nijenhuis", "check_nk_condition", "check_rota_baxter",
        "deformed_bracket", "nijenhuis_from_compatible", "subadjacent_algebra",
    ), "operators"),
    "oracle_eval": "oracles",
    **dict.fromkeys((
        "DeformationTriple", "KNStructure", "OperatorPair", "check_dual_nijenhuis_pair",
        "check_kn_structure", "check_nijenhuis_pair", "check_perfect_pair",
        "compatible_from_kn", "deformation_from_pair", "dual_kn_from_compatible",
        "hat_tilde_representations", "kn_to_dual_kn", "make_kn", "make_pair",
        "sum_nijenhuis_on_twilled",
    ), "pairs"),
    **dict.fromkeys(("CheckReport", "Violation"), "reports"),
    **dict.fromkeys((
        "SearchSpec", "closed_symmetric_forms", "enumerate_operators", "invariant_skew_forms",
        "mc_solutions_from_linear_layer", "solve_mc_linear_layer",
    ), "search"),
    **dict.fromkeys((
        "TwilledContext", "check_matched_pair", "induced_representation", "lifted_algebra",
        "semidirect_sum",
    ), "twilled"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
