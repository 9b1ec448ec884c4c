"""Exact tools for the orthogonality graph of nonzero vectors and nonzero
linear functionals over a finite field, where f_u is joined to v when
u . v = 0.  Everything here is exact integer arithmetic; no floats."""

from .gf import Field, field_from_order, factor_prime_power, field_automorphisms
from .graph import (GuardError, LfGraph, Line, build, domination_number,
                    export, is_dominating, parse_edgelist_json, parse_graph6,
                    to_edgelist_json, to_graph6)
from .autos import (Decomposition, DecompositionError, LineActionError,
                    StructureVerdict, VertexPerm, all_automorphisms,
                    automorphism_defect, check_structure, chi_p, compose,
                    count_automorphisms, count_class_stabilizers,
                    count_component_isomorphisms, decompose,
                    decomposition_from_json, decomposition_to_json, delta_for,
                    formula_card_general, formula_card_n2,
                    formula_component_isos, formula_twin_stabilizer,
                    identity_perm, is_automorphism, iter_automorphisms,
                    line_action, perm_from_json, perm_to_json, phi_bar,
                    pi_extend, random_automorphism, sigma_swap,
                    tau_from_table)

__version__ = "0.1.0"
