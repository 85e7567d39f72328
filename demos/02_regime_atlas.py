"""Map coefficient decay rates to existence regimes.

For fixed exponents the classifier weighs three integrals: the reaction
mass, the first moment of the memory coefficient, and (for p = 1) their
exponentially weighted combination.  Sweeping the decay rates of c and k
shows where each verdict flips, including the logarithmic borderlines.
"""

from memheat import CoefficientSpec, classify_regime

P = CoefficientSpec.power
PL = CoefficientSpec.power_log

print("superlinear pair p = q = 2: verdict over power-law decays")
print("%-18s %-18s %-26s %s" % ("c", "k", "regime", "rule"))
for gc in (0.0, 1.0, 2.0):
    for gk in (1.0, 2.0, 3.0):
        v = classify_regime(2.0, 2.0, P(1.0, gc), P(1.0, gk))
        print("%-18s %-18s %-26s %s"
              % ("(1+t)^-%g" % gc, "(1+t)^-%g" % gk, v.regime, v.rule))

print("\nlogarithmic borderline at the memory moment (q = 2, c = 0)")
for lp in (0.0, 1.0, 2.0):
    k = PL(1.0, 2.0, log_depth=1, log_power=lp)
    v = classify_regime(2.0, 2.0, CoefficientSpec.constant(0.0), k)
    print("  k ~ 1/(t^2 ln^%g t):  %s via %s" % (lp, v.regime, v.rule))

print("\nlinear reaction p = 1 reweights the memory test")
c = P(1.0, 1.0)
for lp in (0.0, 1.0):
    k = PL(1.0, 3.0, log_depth=1, log_power=lp)
    v = classify_regime(1.0, 2.0, c, k)
    print("  k ~ 1/(t^3 ln^%g t):  %s via %s" % (lp, v.regime, v.rule))
print("  the same memory with integrable c = (1+t)^-2 upgrades to:")
v = classify_regime(1.0, 2.0, P(1.0, 2.0), PL(1.0, 3.0, log_depth=1,
                                              log_power=1.0))
print("    %s via %s" % (v.regime, v.rule))

print("\ncondition ledger for one verdict")
v = classify_regime(2.0, 2.0, P(1.0, 2.0), P(1.0, 3.0))
print("  %s via %s" % (v.regime, v.rule))
for cond in v.conditions:
    print("  - %-22s %-9s %s" % (cond.id, "holds" if cond.holds else "fails",
                                 cond.evidence))
