"""framelab: a finite-scale numerical laboratory for frame theory.

Frame, Riesz and Bessel bounds with canonical duals; the R-dual transform
and its bound-transfer theorems; dual-frame extensions of Bessel pairs;
exact finite cyclic Gabor duality (duality principle, Wexler-Raz,
commutation) plus sampled-line dual-window and independence checks; dual
wavelet and wave-packet criteria for band-limited generators; cardinal
B-spline phase diagrams; and lower bounds for finite exponential systems.
"""

from .core import (
    AnalysisReport,
    DimensionMismatch,
    DomainError,
    FrameBounds,
    FrameLabError,
    GridError,
    LatticeError,
    SingularSystemError,
    VectorSystem,
    analysis,
    biorthogonality_residual,
    canonical_dual,
    concat_systems,
    cross_gram,
    duality_check,
    frame_bounds,
    frame_operator,
    gram_matrix,
    random_system,
    riesz_bounds,
    standard_basis,
    synthesis,
)
from .rdual import NSequence, OrthonormalPair, RDualReport, n_sequence, r_dual, \
    verify_dual_pair_biorthogonality, verify_rdual_theorem
from .extension import extend_to_dual_pair, verify_extension
from .gabor import (
    GaborSpec,
    SampledWindow,
    TFPoint,
    duality_principle_check,
    finite_gabor_system,
    frame_operator_commutation_check,
    gabor_extension,
    hrt_independence,
    ron_shen_duality_check,
    wexler_raz_check,
)
from .dilation import (
    FreqFunction,
    WavePacketGrid,
    bessel_divergence_probe,
    lic_estimate,
    wave_packet_bessel_bound,
    wave_packet_duality_check,
    wave_packet_frame_bounds,
    wavelet_duality_check,
)
from .bspline import (
    PhaseDiagramCell,
    bspline_eval,
    bspline_fourier,
    classify_cell,
    dual_window_solve,
    property_suite,
)
from .exponentials import LambdaSet, crude_bound, decay_study, exp_gram, lower_bound

__version__ = "0.1.0"
