"""Numerical evaluation of rank-3 Whittaker functions and SL(3,Z) Maass
forms: four cross-validated Whittaker algorithms (double-Bessel integral,
two residue power series, cached double inverse Mellin transform) and the
even cosine Fourier expansion they feed.
"""

from .errors import (AccuracyRangeError, CancellationError,
                     DegenerateLatticeError, DegenerateParametersError,
                     DomainError, MissingCoefficientError, NonConvergenceError,
                     NonTemperedError, NumericsError, PoleError, UnderflowError)
from .scaled import ScaledComplex, scaled_sum
from .specfun import (BesselOrder, bessel_k, bessel_k_mellin, bessel_k_prime,
                      bessel_k_prime_scaled, bessel_k_scaled, gamma_ratio,
                      log_gamma)
from .quadrature import (MellinGrid2D, QuadratureGrid, inverse_mellin_line,
                         refine_check, trapezoid_line)
from .langlands import (EigenvaluePair, LanglandsParams, eigenvalues, from_nu,
                        permutations)
from .whittaker import (FixedDCache, WhittakerArgs, build_fixed_d_cache,
                        build_pq_table, choose_algorithm, default_mellin_grid,
                        default_stade_grid, pq_build, w_eval,
                        w_mellin_fixed_d, w_series_origin, w_series_small,
                        w_stade)
from .maass import (GENERATORS, GroupWord, H3Point, MaassEvalStats, MaassForm,
                    automorphy_residual, coefficient_demand, decay_cutoff,
                    enumerate_cd, eval_maass, eval_maass_report,
                    expand_coefficients, iwasawa_act, mobius, word_matrix)
from .coeffio import load_coefficient_file, write_coefficient_file

__version__ = "0.1.0"
