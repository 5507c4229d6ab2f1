"""Scrambled digital nets, their pair distribution, and the exact spectral
machinery that proves when scrambling buys negative pair covariance.

One module per stage of the analysis chain, and each name is imported from
the module that defines it: exact digit conversion, input validation and
length vectors (digits), point sets as digit rows, net construction and
equidistribution checks (nets), nested uniform scrambling (scramble), Walsh
series (walsh), common-digit counts, pair profiles and the joint density
(counting), the rational covariance kernel (covkernel), replication
experiments (estimators), and the identity suite (checks).
"""

__version__ = "0.1.0"
