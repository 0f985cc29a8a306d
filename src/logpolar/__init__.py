"""Log-polar space convolution: geometry, operators, training, analysis.

The operator assigns one weight per log-polar region of its receptive
field (radial shells growing geometrically, equal angular sectors) plus a
separate center weight, so the field can grow exponentially while the
parameter count stays at levels_r * levels_theta + 1 per channel pair.
Two interchangeable evaluation paths are provided and checked against
each other: a direct region-weighted reference and a fast realization via
log-polar pooling into region channels plus one 1x1 convolution.
"""

from .analysis import CostReport, RfReport, count_costs, estimate_rf, visualize_kernel
from .baselines import (
    DilatedConfig,
    SquareShareConfig,
    dilated_conv2d,
    dilated_conv2d_backward,
    square_share_conv2d,
    square_share_conv2d_backward,
)
from .conv import conv2d_raw, conv2d_raw_backward
from .data import Dataset, load_idx, make_oriented_edges, save_idx
from .geometry import (
    DegenerateGeometryWarning,
    LogPolarMask,
    LpscConfig,
    build_mask,
    mask_to_pgm,
    mask_to_text,
    region_radii,
)
from .lpsc import (
    LpscWeights,
    load_lpsc_weights,
    log_polar_pool,
    lpsc_backward,
    lpsc_forward_fast,
    lpsc_forward_reference,
    save_lpsc_weights,
)
from .network import (
    LayerSpec,
    NetSpec,
    Network,
    TrainConfig,
    build_network,
    evaluate,
    load_checkpoint,
    parse_net_file,
    save_checkpoint,
    train,
)
from .tensor import load_tensor, save_tensor

__version__ = "0.1.0"
