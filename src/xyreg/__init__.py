"""Groebner-basis toolkit for regular sequences among the entries of a
generic matrix product X*Y.

The package splits into an exact polynomial layer (fields, ring, orders,
poly), a Groebner engine over one numpy reduction kernel (kernels,
groebner, hilbert), regular-sequence certification and oracles (regseq),
the product-entry pattern, its end-to-end certification and the
certificate re-checker (pattern), and a command-line surface (cli).
"""

from .errors import (BudgetExceededError, CertificateFormatError,
                     CertificationError, DimensionError, HomogeneityError,
                     OrderMismatchError, ParseError, UndefinedLeadError,
                     XyregError)
from .fields import DEFAULT_PRIME, QQ, PrimeField, RationalField
from .groebner import (GroebnerBasis, SignatureStats, buchberger, groebner_basis,
                       lead_ideal, multi_divide, normal_form, reduce_basis, s_poly)
from .hilbert import HilbertData, hilbert_numerator, hilbert_series_quotient
from .kernels import active_backend
from .orders import MonomialOrder
from .pattern import (GenericProduct, PatternSpec, build_ring, certification_order,
                      certify_pattern, column_limit, counterexample_2x2,
                      expected_effective_lead, recheck_certificate, selected_entries,
                      selected_rows)
from .poly import Polynomial, Term, format_poly, parse_poly
from .regseq import (CertificateStep, ColonStep, ExtensionReport, OracleReport,
                     RegularityCertificate, check_technical_step,
                     colon_witness_holds, greedy_extend, nonzerodivisor_colon,
                     sequence_oracle)
from .ring import Monomial, VariableTable, format_monomial

__version__ = "0.1.0"
