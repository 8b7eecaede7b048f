"""Transport-map training by Hilbert-space gradient Langevin dynamics.

The library represents a trainable map by its coefficients against an
orthonormal basis, runs the implicit-Euler Langevin chain on those
coefficients, and ships the oracles (conjugate posterior, finite differences,
Monte-Carlo estimators) and diagnostics (ergodicity constants, generalization
bound, rate fits) that verify the behavior numerically at desk scale.
"""

from .spectral import (EigenSequence, SpectralBasis, GaussianMeasureSpec,
                       make_eigen_sequence, apply_A, resolvent_S_eta,
                       sample_prior, weighted_norm, project_P_N,
                       fractional_power_scale, gram_eigenbasis, cosine_basis,
                       diagonal_basis, eval_basis)
from .models import (Dataset, ParticleCloud, TransportMap, ClipConfig,
                     ModelSpec, clip, finite_width_cloud, forward,
                     empirical_risk, gradient, lipschitz_gap,
                     wasserstein_objective)
from .losses import (LossBounds, loss_eval_derivs, clipped_loss_range,
                     bernstein_check, feasible_band, smoothness_audit)
from .langevin import (DynamicsConfig, ChainState, Trajectory,
                       ChainDivergedError, gld_step, run_chain, run_chains,
                       gld_zero_grad_stationary_variance)
from .oracle import (GaussianPosterior, conjugate_posterior, finite_diff_grad,
                     small_ball_mc, gaussian_correlation_mc,
                     batch_means_stderr)
from .analysis import (Prop1Constants, prop1_constants,
                       pac_bayes_bound, fit_geometric_decay, fit_stepsize_bias,
                       epsilon_star, truncation_for_bias, excess_risk_rate_fit,
                       classification_error_prob, assumption_audit)

__version__ = "0.1.0"
