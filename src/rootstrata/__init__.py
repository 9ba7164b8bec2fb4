"""Exact equivariant classes of coincident root strata of binary forms.

The central objects are the strata Y_lam of degree-d binary forms whose
root multiplicities follow a partition lam, their classes in the Schur
basis with polynomial dependence on d, and the enumerative counts
(generalized Plucker numbers, flexes, hyperflexes, lines on
hypersurfaces) those classes specialize to.  All arithmetic is exact.
"""

import types as _types

from .combinat import catalan, kostka, riordan, stirling_first
from .crs import (CRSClass, crs_class, crs_class_at, crs_m_closed, euler_pol,
                  euler_identity_check, leading_term, weighted_product)
from .dpoly import D, DPoly, interpolate
from .errors import (DegreeMismatch, DegreeTooSmall, InconsistentSamples,
                     InvalidPartition, NotSymmetric, OutOfRange,
                     PolynomialityViolation, RootStrataError, ZeroDenominator)
from .flagcalc import (FlagClass, GrassClass, ProjClass,
                       flex_point_locus_class, incidence_class, p_push,
                       q_push, tangency_class_resolution)
from .multipoly import MultiPoly, substitute_homogeneous
from .partitions import Partition, stratum_partitions, validate_stratum
from .plucker import (PluckerTable, asymptotic_plucker, degree_table,
                      hyperflex_count, lines_on_hypersurface,
                      mflex_coefficient, mflex_polynomial, plucker_point,
                      plucker_table)
from .schur import (SchurExpansion, chern_to_schur, complete_h_expand,
                    divided_difference, schur_expand, schur_to_chern)
from .universal import (UniversalClass, hilbert_degree, pencil_locus_class,
                        universal_class, universal_incidence_class)

__version__ = "0.1.0"

# every public name imported above, so each is written once
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
