"""The fixed tolerances every report lists, apart from the numpy code that
applies them, so that a job reads them without running that code."""

# Eigenvalue lambda counts as <= 0 when lambda <= NULL_TOL * max |lambda|.
# Based families contain exactly-zero blocks whose eigenvalues are polluted at machine-eps
# scale by the sharp coupling, hence a relative rather than absolute cut.
NULL_TOL = 1e-8

# Clustering tolerance for eigenphases: spectrum members closer than this are
# one point of the action spectrum with summed multiplicity.
PHASE_CLUSTER_TOL = 1e-9

# Relative tolerance for "x is a multiple of T_w".  Selector values are
# eigenphases accurate to ~1e-12, so snapping at 1e-9*max(1,|x|) absorbs
# representation noise without ever confusing distinct lattice points
# (neighbouring multiples are >= 2*pi/k apart).
PERIOD_SNAP_TOL = 1e-9
