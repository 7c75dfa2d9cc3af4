"""Matrix profile substrate (Yeh et al., "Matrix Profile I", ICDM 2016).

Implemented from scratch on numpy FFTs, over the distance kernels of
:mod:`repro.kernels` (whose :func:`~repro.kernels.mass` is the MASS
distance profile of one query against every window of a series):

* :func:`stomp_self_join` / :func:`ab_join` — full matrix profile via the
  STOMP incremental dot-product recurrence, with trivial-match exclusion
  zones and optional validity masks (used to skip windows that cross
  instance junctions in concatenated series).
* :class:`MatrixProfile` — result container with motif/discord extraction
  and profile differencing (the paper's ``diff(P_AB, P_AA)``, Fig. 4).
"""

from repro.matrixprofile.discovery import top_k_discords, top_k_motifs
from repro.matrixprofile.profile import MatrixProfile, profile_diff
from repro.matrixprofile.stomp import ab_join, default_exclusion, stomp_self_join

__all__ = [
    "MatrixProfile",
    "ab_join",
    "default_exclusion",
    "profile_diff",
    "stomp_self_join",
    "top_k_discords",
    "top_k_motifs",
]
