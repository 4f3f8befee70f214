"""Sound-speed-marginalized adaptive beamforming for active sonar imaging.

Simulates multipath point-target returns, runs the receive chain
(quantization, TVG, band-pass filtering to the analytic receive band with
decimation, matched filtering), and images
with DAS, MVDR, or an MVDR beamformer marginalized over a Gaussian
sound-speed posterior via Gauss-Hermite quadrature.
"""

from .beamform import (BeamformerConfig, ImageResult, PointsResult, beamform_image,
                       beamform_points)
from .chain import ChainConfig, receive_chain
from .core import ArrayGeometry, LfmPulse, ScanGrid
from .cube import BasebandCube, RawDataCube, read_cube, write_cube
from .metrics import Box, DbImage, envelope_db, fwhm, pmal, rmse_db
from .simulate import Environment, SimConfig, Target, synthesize_rx

__version__ = "0.1.0"
