"""The tolerance policy: every zero, rank and symmetry threshold, named once.

A structure test asks if an exact relation holds, within a tolerance of
the scale compared; a resolution floor is where numbers become rounding;
a physical threshold decides what the output calls zero, critical or
entangled.  Call sites read the names in their bodies, for tests to patch.
"""

# Structure tests.
SYMMETRY_TOL = 1e-12  # of the scale compared (hopping blocks, parameters, unit vectors)
PROPORTIONAL_TOL = 1e-9  # |mu/t| and |t/Delta| of two parents agree: they are proportional

# Resolution floors.  The eigensolver returns a double root as a real or
# complex pair up to about sqrt(eps) apart, so eigenvalues within
# ROOT_SPREAD (relative) of the real axis are candidates, and a pencil
# piece's roots that close together are one root.  A candidate is a root
# of a piece when the piece's smallest singular value there, a chain level
# in its sector, is at most EXACT_ZERO_TOL of the chain's largest level.
# Inside the oscillatory window the roots are accurate to about 1e-14, and
# roots of two pieces are one root only when they agree to ROOT_MATCH.
ROOT_SPREAD = 1e-7
ROOT_MATCH = 1e-12
EXACT_ZERO_TOL = 1e-10
ENTRY_CUT = 2.0**-104  # eps^2: toeplitz zeroes corner entries below it times the largest
RANK_CUT = 1e-8  # classifier: content directions below it x the leading singular value go
RANK_TOL = 1e-6  # classifier: Gram directions below its square x the leading one go
SITE_TOL = 1e-6  # classifier: peak sites lie within it (relative) of the region's largest weight
TOL_FLOOR = 1e-30  # under the scale of a relative tolerance, which so stays positive
SCALE_FLOOR = 1e-300  # under a parameter scale that divides

# Physical thresholds.
ZERO_TOL = 1e-8  # the tasks' zero-tol default, an absolute energy, echoed in the header
# of the clean levels' spread (the bandwidth): the one relative zero tolerance,
# zero_subspace's and so classify's default, and disorder's verdict threshold
BAND_ZERO_TOL = 1e-6
GAP_TOL = 1e-9  # a parent's curve closes its gap this near the origin, of its largest modulus
ENTROPY_TOL = 1e-6  # a Bell pair within it of ln 2, a product within it of 0
OVERLAP_MIN = 0.999  # a catalogue state above it in squared overlap
