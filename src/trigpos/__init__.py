"""Certified positivity of trigonometric partial sums.

The package splits into seven layers:

* :mod:`trigpos.exact` -- exact rational polynomials, Sturm root counts
  and rational enclosures;
* :mod:`trigpos.trigsums` -- the trigonometric sums under study and the
  proof cases' polynomials, written as Chebyshev sums;
* :mod:`trigpos.quadrature` -- singular oscillatory integrals
  int_0^x g(t + eta) t^(mu-1) dt, summed as power series whose truncation
  and rounding errors are bounded under the standard rounding model;
* :mod:`trigpos.mustar` -- the threshold exponent mu*(rho), enclosed by
  verified sign changes of its defining integral;
* :mod:`trigpos.bounds` -- the wedge factor, the sampling-lemma panel
  constants and the composite region bounds;
* :mod:`trigpos.engine` -- grid certificates of positivity on intervals;
* :mod:`trigpos.gegenbauer` -- sampled unit-disk estimates, none a proof.

`trigpos.cli` exposes everything as a scriptable `trigpos` command.  Only
its grid checks import the engine and only its `gegenbauer` case imports
gegenbauer: the two layers that use numpy, neither importing the other.
"""

from trigpos.precision import working_dps

__all__ = ["working_dps"]
__version__ = "0.1.0"
