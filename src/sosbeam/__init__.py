"""Sound-speed-marginalized adaptive beamforming for active sonar imaging.

Simulates multipath point-target returns, runs the receive chain
(quantization, TVG, quadrature demodulation, matched filtering), and images
with DAS, MVDR, or an MVDR beamformer marginalized over a Gaussian
sound-speed posterior via Gauss-Hermite quadrature.
"""

from .beamform import (BeamformerConfig, ImageResult, PointsResult, beamform_image,
                       beamform_points)
from .chain import demodulate, matched_filter, quantize, receive_chain, tvg
from .core import ArrayGeometry, LfmPulse, ScanGrid, hann_weights
from .covariance import (capon_solve, diagonal_load, forward_backward,
                         replace_degenerate, sample_covariance, subarray_snapshots,
                         unitary_windows)
from .cube import BasebandCube, RawDataCube, read_cube, write_cube
from .metrics import (Box, DbImage, MetricsReport, envelope_db, fwhm, pmal,
                      rmse_db)
from .quadrature import QuadratureRule, SosPrior, gauss_hermite, node_to_sos
from .simulate import (Environment, PathArrival, SimConfig, Target,
                       depth_averaged_sos, enumerate_paths, lfm_pulse_samples,
                       synthesize_rx)

__version__ = "0.1.0"
