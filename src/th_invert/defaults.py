"""Default tolerances and grid sizes shared across modules."""

INVERTIBILITY_TOL = 1e-9     # minimum modulus on the grid for 1/a to be accepted
MATCHING_TOL = 1e-9          # max grid deviation of a*~a - b*~b
JUMP_TOL = 1e-9              # |left - right| above which a point counts as a jump
WINDING_MIN_MODULUS = 1e-7   # curves closer to 0 than this are "through the origin"
CRITICAL_RTOL = 1e-9         # relative distance at which a critical exponent counts as p
WINDING_RESIDUAL = 1e-2      # |winding - round(winding)| must stay below this
SV_THRESHOLD = 1e-8          # singular values below this count toward the kernel
SPECTRAL_GAP = 100.0         # required ratio smallest-kept / largest-dropped
QUADRATURE_TOL = 1e-10       # absolute error target for Fourier quadrature
GRID_N = 1024                # equispaced evaluation angles on the circle
Y_GRID_N = 257               # finite samples of the compactified real line
Y_GRID_DELTA = 1e-6          # tanh-map clearance at the +-infinity ends
