"""Every floating-point threshold of plektonlab, one name per bounded quantity.

They decide validity checks, separation and winding verdicts, branches of closed
forms and whether a `verify` row passes; strict or not is decided where each is used.
"""

# Lorentz matrices and the universal cover (minkowski).  Only matrices met at
# the public constructors are checked; chart elements are group elements by
# construction.  A float matrix's entries carry eps |L|, so its metric residual
# is allowed max(1, |L|^2) and its det, read as cofactor(L00) / L00, max(1, |L|)
MAT_TOL = 1e-12  # |L^T eta L - eta| per allowance; default matrix-entry closeness
DET_TOL = 1e-9  # |det L - 1| per max(1, |L|), never more than 1
ORTHOCHRONOUS_TOL = 1e-9  # how far L00 may fall below 1, per allowance (never below 0)
LIFT_TOL = 1e-9  # difference of two lifted angles that still counts as agreement
PURE_ROTATION_BOOST = 1e-12  # rapidity chi up to which an element is a pure rotation
POLAR_BRANCH_BOOST = 1e-6  # |(L01, L02)| up to which theta reads the rotation block (~1e-12)
# Directions, arcs and regions (cones, scenes)
NORM2_TOL = 1e-9  # |v.v - target| for unit space-like directions; for the normals given to
# ConePath(...), per max(1, |n0| top), top the largest |n0| (transport error ~ eps |n0| |L|)
ARC_TOL = 1e-9  # lifted-arc endpoint comparisons and arc widths
HALF_OPENING_MARGIN = 1e-12  # how far below pi/2 a cone's half-opening must stay
WEDGE_HALF_OPENING_TOL = 1e-9  # |half_opening - pi/2| accepted for a wedge in a scene file
WEDGE_TOL = 1e-9  # slack of path_within_wedge on arcs, apex and corners
REFLECTION_TOL = 1e-12  # |wrap(2 mu - pi)| up to which a reference angle mu is j-invariant
# Separation certificate (cones): <= SEP_ZERO separated, >= SEP_AMBIGUOUS causal, else raises
SEP_ZERO = 1e-10  # dimensionless violation read as contact
SEP_AMBIGUOUS = 1e-7  # dimensionless violation read as a causal pair
SEP_DEGENERATE = 1e-14  # largest component up to which a vector counts as zero
SEP_NAPPE_SLACK = 1e-9  # Minkowski square down to -this still lies in the light cone
# Largest minimiser-only violation that settles a lane without the full certificate,
# in `cones._decide` and in the generators' `cones._cones_separated`, which rejects
# every lane it does not settle.
# The 4n minimisers (+-1, cos psi, sin psi) have max-norm exactly 1 and are admitted
# in their own nappe; the certificate pairs the same psi with each row scaled to
# max-norm 1 in a 3-term product, so its value differs from the filter's by under
# 1e-14 (a few eps).  A minimiser at <= SEP_ZERO / 2 in both nappes therefore keeps
# the certificate's minima <= SEP_ZERO: separated, never in the band, as it would say.
SEP_FILTER = SEP_ZERO / 2.0
# Primal oracle (cones.find_causal_pair), kept apart from the certificate
ORACLE_COMMON_APEX = 1e-12  # |apex difference| per max(1, |apexes|) read as a common apex
ORACLE_CONTACT = 1e-9  # max of +-t0 - |t_s| over the max-norm hull read as contact
# Oracles of the closed forms (continuation, lattice)
CONTINUATION_RTOL = 1e-12  # endpoint change between step counts per max(1, |endpoint|)
LATTICE_TOL = 1e-12  # max-norm distance between the matrix sides of a lattice identity
# Pass bounds of verify rows (suites); rows comparing lifted angles use LIFT_TOL
ORIENTATION_TOL = 1e-12  # reflection-reverses-orientation: |forward + backward| angle
ROTATION_EIGENVALUE_TOL = 1e-9  # |U(r(2 pi)) psi - phase psi| on shell points
REFLECTION_RELATION_TOL = 1e-8  # reflection-relations: U(j) relation residuals
UNITARITY_TOL = 1e-6  # unitarity: relative change of the shell norm
STEP_INDEPENDENCE_TOL = 1e-10  # continuation-step-independence: lift change at half the step
