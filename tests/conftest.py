# rydsim sets OMP_NUM_THREADS=1 unless it is set, which only takes effect
# before numpy loads; the test modules import numpy first, so import
# rydsim here, before any of them.
import rydsim  # noqa: F401
