"""dcl: a spectral laboratory for higher-order nonlocal shallow-water equations on the circle.

The package simulates u_t + d_x^(2j+1) u + 1/2 d_x(u^2)
+ d_x (1-d_x^2)^(-1) [u^2 + 1/2 u_x^2] = 0 on [0, 2*pi*lam) with exact
linear dispersion, evaluates the restriction-norm machinery (X_{s,b}, Y^s,
Z^s, W^s over the five-region modulation decomposition), and runs the
verification harnesses: the resonance certificate, the embedding-chain
scans, the two-mode ill-posedness scaling probe, and the
rescaling/contraction experiments.
"""

from .lattice import (
    ModelParams,
    SpatialSpectrum,
    forward_transform,
    hs_norm,
    inverse_transform,
    spectrum_from_json,
    spectrum_to_json,
    x_grid,
)
from .symbols import (
    dispersion_symbol,
    free_evolution,
    nonlinearity_F,
    nonlocal_multiplier,
    product_spectrum,
)
from .evolve import (
    IntegratingFactorRK4,
    PicardConfig,
    SolverState,
    Trajectory,
    bump_eta,
    energy,
    pde_residual,
    picard_iterate,
    simulate,
    step,
)
from .bourgain import (
    RegionLabel,
    SpaceTimeSpectrum,
    bilinear_probe,
    classify_region,
    from_characteristic,
    from_time_samples,
    sigma,
    st_convolve,
    verify_embeddings,
    verify_regions,
    ws_norm,
    xsb_norm,
    ys_norm,
    zs_norm,
)
from .resonance import Triple, classify_max_case, resonance_magnitude, verify_resonance_bound
from .illposed import (
    CounterexampleConfig,
    build_counterexample,
    collision_scan,
    duhamel_weighted_bilinear,
)
from .rescale import rescale_field, rescale_trajectory, rescaled_residual

__version__ = "0.1.0"
