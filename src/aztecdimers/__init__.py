"""Exact local statistics of uniformly random domino tilings of the Aztec diamond.

The product is the coupling function and its pattern probabilities
(:mod:`aztecdimers.coupling`, over the Krawtchouk kernel of
:mod:`aztecdimers.combinatorics`); the oracles that certify it are exact
Kasteleyn determinants and transfer-matrix matching counts
(:mod:`aztecdimers.kasteleyn`, :mod:`aztecdimers.enumerate`).  The paper's
derivation chain between the two lives in the tests, ``tests/derivation.py``.
"""

__version__ = "0.1.0"
