"""Presentation-level toolkit for torsion-length constructions.

Free/cyclic word reduction, Tietze moves on finite presentations,
normal forms in free products of cyclic groups, Stallings foldings,
Todd-Coxeter coset enumeration, the torsion-length quotient engine,
and builders for the presentation families they are tested on.
"""

from .abelian import AbelianInvariants, smith_normal_form
from .consequences import ClosureBall, closure_ball, verify_factors
from .constructions import (
    LnResult,
    TgenResult,
    build_chain,
    build_ln,
    build_pjkl,
    build_pn,
    build_qn,
    build_tgen,
)
from .coset import BoundExceeded, CosetTable, todd_coxeter
from .freeprod import (
    CyclicFactorSpec,
    NoWitnessUpToBound,
    NormalForm,
    SeparationWitness,
    TorsionWitness,
    conjugate_separation_search,
    is_torsion,
    nf_invert,
    nf_multiply,
    nf_power,
    normal_form,
    ping_pong_free_check,
)
from .presentation import (
    FreeProductResult,
    Presentation,
    PresentationError,
    PresentationMorphism,
    PresentationSyntaxError,
    abelianization,
    adjoin_relators,
    canonicalize,
    eliminate_generator,
    eliminate_generator_with_image,
    free_product,
    hnn_presentation,
    kill_generators,
    parse_presentation,
    presentation_to_json,
    serialize_presentation,
)
from .stallings import (
    FreeBasis,
    SubgroupGraph,
    build_subgroup_graph,
    closure_members,
    closure_membership_oracle,
    free_basis,
    graph_report,
    membership,
    nielsen_reduce,
)
from .torsion import (
    CertificateSearchReport,
    QuotientStep,
    TorsionCertificate,
    TorsionLengthReport,
    certified_words,
    in_certified_class,
    torsion_certificate_search,
    torsion_length,
    torsion_quotient_step,
    visible_torsion_generators,
)
from .words import (
    Word,
    WordError,
    cyclic_reduce,
    free_reduce,
    is_cyclically_reduced,
    is_freely_reduced,
    substitute,
)

__version__ = "0.1.0"
