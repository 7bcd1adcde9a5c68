"""Exact-arithmetic engine for Coxeter groups: greedy wall-set projections,
the geodesic language they generate, and a finite automaton recognising it.
"""

from .automaton import (
    VoraciousAutomaton,
    build_automaton,
    from_json_dict,
    small_roots,
)
from .coxeter import (
    INF,
    CoxeterMatrix,
    CoxeterSystem,
    GroupConfigError,
    GroupElement,
    ResourceLimitError,
    Wall,
    load_group_file,
    parse_group_config,
    word_from_string,
    word_to_string,
)
from .field import FieldContext, FieldScalar
from .language import FactorizationChain, VoraciousLanguage
from .verify import Verifier, VerifierConfig, VerificationReport
from .walls import WallGeometry

__version__ = "0.1.0"

__all__ = [
    "INF",
    "CoxeterMatrix",
    "CoxeterSystem",
    "FactorizationChain",
    "FieldContext",
    "FieldScalar",
    "GroupConfigError",
    "GroupElement",
    "ResourceLimitError",
    "VerificationReport",
    "Verifier",
    "VerifierConfig",
    "VoraciousAutomaton",
    "VoraciousLanguage",
    "Wall",
    "WallGeometry",
    "build_automaton",
    "from_json_dict",
    "load_group_file",
    "parse_group_config",
    "small_roots",
    "word_from_string",
    "word_to_string",
    "__version__",
]
