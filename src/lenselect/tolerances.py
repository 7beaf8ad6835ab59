"""The fixed tolerances, apart from the numpy code that applies them, so
that a job reads them without running that code: the three every report
lists and DET_LIFT_TOL, the det-lift check that `parse_job` prices a path
against."""

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

# The det-lift winding W is an integer up to roundoff in the lift and the
# endpoint eigenphases; a larger miss means the path data are inconsistent.
#
# The check means something only while the lift itself is that accurate.  In
# float64 (unit roundoff u = 2^-53), tr(A_i) sums n diagonal entries, with
# error <= (n - 1) u sum_j |a_jj|; the product by d_i adds one rounding and
# the sum over S segments (S - 1) u times the sum of the terms' sizes.  To
# first order the computed L misses the exact one by at most
#     (n + S - 1) u Lambda,    Lambda = sum_i d_i sum_j |(A_i)_jj|,
# which `jobs._det_lift_roundoff` returns from the path's per-segment spans.
# Past DET_LIFT_TOL the rounded W can be the wrong integer and still pass the
# check (from |W| = 2^52 on, every float is an integer), so a path with a
# larger bound is refused up front.
#
# The window adds roundoff of its own: W is evaluated at the gap midpoints
# mid of [window_base, window_base + 2 pi).  An error in mid itself cancels
# (it moves n mid and sum_j phi_j by the same amount while mid stays in its
# gap); the product n mid, the n differences mid - theta_j, their reductions
# modulo the rounded 2 pi and the two sums of terms of size n |mid| each add
# at most about n u |mid|.  So W misses by at most (5 / 2 pi) n u |mid|, less
# than n u |window_base| + 5 n u, and
# `jobs._det_lift_roundoff(n, spans, window_base)` adds n u |window_base| to
# the bound on L.
DET_LIFT_TOL = 1e-6
