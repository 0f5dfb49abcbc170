"""Linear multiscale transforms built on even-reversible subdivision masks.

A subdivision mask whose even symbol never vanishes on the unit circle can
be "reversed on the evens": there is a summable inverse filter that undoes
the even half of the upscaling step.  Decimating with that filter and
storing the prediction residual yields a pyramid whose details vanish at
every even index, reconstructs perfectly, and obeys explicit decay and
stability bounds.  An exact pyramid stores each level's odd half, N values
for N samples as its packed file does; ``Pyramid.details`` is full-length.  This
package provides the mask algebra, the catalog of spline and pseudo-spline
masks, the inverse kernels and their decay certificates, the transform
itself, and the analysis experiments that verify the bounds numerically.
"""

from .errors import (
    CertificateUnavailableError,
    DecimationSingularError,
    EvenReversibilityError,
    EvenRevError,
    LengthError,
    LevelError,
    ParameterError,
    ShapeError,
    SlowDecayError,
)
from .laurent import (
    Mask,
    circular_convolve,
    convolve,
    delta,
    difference,
    downsample,
    even_part,
    make_mask,
    min_modulus_on_circle,
    norm_l1,
    norm_linf,
    odd_part,
    subdivide,
    sup_norm_on_circle,
    upsample,
    upsample_mask,
)
from .masks import (
    bspline_mask,
    catalog,
    dd_mask,
    generalized_binomial,
    is_interpolatory,
    pseudo_spline_mask,
)
from .inverse import (
    DecayCertificate,
    Kernel,
    check_even_reversible,
    cubic_series_constants,
    decay_certificate,
    even_inverse_spectral,
    min_even_symbol,
    one_norm_bound_C,
)
from .transform import Pyramid, decimate, decompose, reconstruct, threshold_details
from .analysis import (
    compression_experiment,
    decay_report,
    decomposition_stability_experiment,
    derivative_bound,
    estimate_subdivision_sup_norm,
    filter_moment_constants,
    reconstruction_stability_experiment,
    sample_function,
)

__version__ = "0.1.0"
