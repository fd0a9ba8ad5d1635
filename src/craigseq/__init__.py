"""Craig interpolation for multiple-conclusion sequent calculus derivations.

The package is organised bottom-up:

- :mod:`craigseq.formulas` — formula ASTs with de Bruijn binders, renaming,
  binding/instantiation, polarity, and the canonical formula order;
- :mod:`craigseq.calculus` — canonical formula sets, sequents, derivation
  trees, and the rule-instance checker;
- :mod:`craigseq.interpolation` — split sequents, the interpolation algorithm
  with witness derivations, the syntactic verifier, and simplification;
- :mod:`craigseq.syntax` — text formats for formulas, derivations, problem
  files, and result files;
- :mod:`craigseq.oracle` — truth-table semantics and seeded random generation
  of wellformed derivations;
- :mod:`craigseq.cli` — the ``craigseq`` command.
"""
from types import ModuleType as _ModuleType

from .calculus import (
    AllL,
    AllR,
    AndL,
    AndR,
    BotL,
    Derivation,
    ExL,
    ExR,
    FormulaSet,
    Init,
    NotL,
    NotR,
    OrL,
    OrR,
    RuleInstance,
    Sequent,
    TopR,
    WL,
    WR,
    fset,
    is_wellformed,
    premises,
    resolve_rule,
    root,
    size,
)
from .formulas import (
    BOT,
    TOP,
    And,
    Atom,
    Bot,
    FAll,
    FEx,
    Formula,
    Not,
    Or,
    Polarity,
    Top,
    bind,
    canonical_key,
    free_vars,
    inst,
    match_bind,
    match_inst,
    neg,
    polarity,
    pos,
    pre_suc,
    rename_vars,
)
from .interpolation import (
    InterpolationError,
    InterpolationResult,
    NotWellFormedError,
    SplitMismatchError,
    SplitSequent,
    UnreachableCaseError,
    VerifyReport,
    interpolate,
    interpolate_strong,
    simplify_bool,
    verify,
)
from .syntax import (
    ParseError,
    ProblemFile,
    RootMismatchError,
    parse_derivation,
    parse_formula,
    parse_problem,
    parse_result,
    print_derivation,
    print_formula,
    print_problem,
    print_result,
    print_sequent,
)

__version__ = "0.1.0"

#: Served from :mod:`craigseq.oracle`, which is imported on first use: no
#: subcommand of the ``craigseq`` command needs it.
_ORACLE_NAMES = (
    "GenConfig",
    "SplitMix64",
    "eval_formula",
    "gen_derivation",
    "is_valid_sequent",
    "random_split",
    "semantic_verify",
)

__all__ = sorted(
    {name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)}
    | set(_ORACLE_NAMES)
)


def __getattr__(name: str) -> object:
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORACLE_NAMES})
