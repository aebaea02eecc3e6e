"""Exact cohomology calculator for the standard local model of a Mukai flop.

The model is the projectivized bundle X = P(O + Theta) over P^n with its
flop X+.  Submodules:

  bwb      cohomology of homogeneous bundles on P^n from Levi weights
  pbundle  line-bundle cohomology on X through pushforward and duality
  flop     the Picard involution and the pushpull functors phi / phi' / psi
  homalg   dimension chasing, the Koszul resolution, Ext against the ideal
  verify   named pass/fail suites for the model's dimension claims
  cli      the ``flopcalc`` command-line tool

Each name is imported from its module (``from flopcalc.bwb import
weyl_dim``); the package itself binds none, so ``import flopcalc`` alone
loads no submodule.
"""
