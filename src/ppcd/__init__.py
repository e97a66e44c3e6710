"""p'-character-degree combinatorics with built-in verification oracles.

Partitions, hooks and e-cores; exact symmetric-group character degrees
with two independent p'-degree tests; the p'-hook counting formula
against two constructions of the set; quasihook families and the
extendable-degree lower bound for A_n; and the degree polynomials in q
used for the small Lie-type families, with their divisibility
contracts.  Each public name that no CLI path reaches, both p'-degree
tests among them, is the oracle or the subject of a named check; the
README lists each with its check.
"""

from .ctbl import (
    DegreeTable,
    bundled_names,
    bundled_table,
    cd,
    cd_pprime,
    load_degree_table,
    pgl2_degree_set,
)
from .degrees import (
    binomial_coprime_lucas,
    degree,
    degree_valuation,
    factorial_valuation,
    hook_degree,
    is_pprime_macdonald,
    is_pprime_oracle,
)
from .hooks import (
    AnBoundResult,
    count_pprime_hooks_formula,
    count_pprime_partitions_formula,
    ext_pprime_degree_set,
    filter_ext_degree_sets,
    halved_count_lower_bound,
    list_pprime_hooks,
    pprime_hook_xs,
    quasihook,
    quasihook_monotone,
    scan_ext_degree_sets,
    verify_An_bound,
    verify_hook_counts,
)
from .lie import (
    CentralizerSpec,
    DegreeFormula,
    ExceptionalPairRecord,
    classical_grid,
    classical_unipotent_pair,
    exceptional_grid,
    exceptional_pair,
    exceptional_pair_record,
    gl_order,
    nondivisibility_check,
    not_both_divisible,
    qprime_part,
    semisimple_degree,
)
from .partitions import (
    Partition,
    conjugate,
    divisible_hooks,
    e_core,
    e_core_by_removal,
    enumerate_partitions,
    hook_partition,
    is_prime,
    is_self_conjugate,
    p_adic_expansion,
)

__version__ = "0.1.0"
