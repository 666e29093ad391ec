"""Exact-arithmetic toolkit for finite-dimensional alternative rings.

Rings are given by structure constants over Q or a prime field; the
library computes Peirce decompositions relative to an idempotent, checks
the structural hypotheses behind the psi + tau splitting of surjective
idempotent-preserving Lie multiplicative maps, performs that splitting,
and certifies every claim exhaustively at desk scale.
"""

from .decompose import (BRANCH_DAGGER, BRANCH_DDAGGER, DecompositionResult,
                        decompose, detect_branch, verify_decomposition,
                        verify_theorem)
from .enumeration import DEFAULT_BUDGET, Enumeration
from .errors import (AltringError, AmbiguousCentralSplit, BranchUndetermined,
                     BudgetExceeded, DimensionMismatch, DomainMismatch,
                     HypothesisFailed, InvalidField, NotBijective,
                     NotIdempotent, NotIdempotentImage, NotInvertible,
                     OffsetNotCentral, ParseError, PeirceIncompatible,
                     RingMismatch, TrivialIdempotent, UnsupportedDomain)
from .generators import (gen_direct_sum, gen_m2, gen_triangular2, gen_zorn,
                         zorn_idempotent)
from .maps import (MapTable, build_map, check_almost_additivity,
                   check_map_consequences, check_peirce_image, load_map,
                   map_from_json, map_to_json, phi_linear, save_map,
                   verify_lie_multiplicative, verify_preserves_idempotents,
                   verify_surjective)
from .reports import CheckReport
from .rings import (Element, Ring, associator, commutator, is_alternative,
                    is_associative, is_flexible, is_k_torsion_free,
                    load_ring, ring_from_json, ring_to_json, save_ring)
from .scalars import PrimeField, Rationals, is_prime
from .structure import (IdempotentCensus, PeirceFrame, PrimenessReport,
                        Subspace, analyze, center, check_main_hypotheses,
                        check_primeness, check_spade_club,
                        check_z_of_peirce_cell, idempotents, nucleus,
                        peirce_frame, verify_peirce_relations)

__version__ = "0.1.0"
