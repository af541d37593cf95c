"""Acceptance gate: eight end-to-end criteria with hard runtime bounds.

Every check is exact rational arithmetic with zero tolerance.  Each test
prints a single verdict line (run with -s to see them):

    ACCEPTANCE k: PASS (...)

Criteria:
  1. separating example: cyclic:p at prime p is Johnson amenable but
     fails Schikhof with witness ({e}, G, index p), mean norm exponent 1,
     under 1 s per case through the CLI;
  2. the two Schikhof methods agree with each other and with p not
     dividing |G| across the whole catalog of order <= 16 over primes
     {2,3,5,7} (>= 80 cases), under 30 s;
  3. the virtual diagonal construction passes the balance and projection
     identities, equals the closed form |G|^{-1} sum delta_g (x)
     delta_{g^{-1}}, and its marginal is the normalized invariant mean,
     for every catalog G; under 60 s for order <= 12;
  4. Hopf axioms and the dual action identity pass on the catalog of
     order <= 12; the corrupted antipode control fails the antipode
     diagrams on symmetric:3; under 30 s;
  5. the enveloping quotient has dimension |G| and maps bijectively onto
     the convolution algebra for all groups of order <= 8, under 60 s;
  6. every derivation is inner for the three stock bimodules on all
     groups of order <= 8, under 120 s;
  7. randomized law suite, >= 1000 samples each: ultrametric inequality,
     norm submultiplicativity of convolution, multiplicativity of the
     augmentation; zero violations;
  8. the augmentation ideal identity e_0 has norm exponent v_p(|G|) and
     1 (x) 1 - d is a right identity of ker pi_0, for every catalog
     (G, p).

Criteria 3 to 6 and the kernel identity of 8 are identities over the
rationals: the functions they call take no prime, so each runs once per
group and holds at every p.
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction

from oracles import from_coeffs, tensor_of, valuation

from padicamen import cli
from padicamen.amenability import (diagonal_ideal_identity, johnson_check,
                                   mean_from_diagonal, schikhof_check,
                                   virtual_diagonal_construct)
from padicamen.finite_group import (catalog, cyclic, dihedral,
                                    enumerate_subgroups, symmetric)
from padicamen.group_algebra import (GroupAlgebra, augmentation, convolve,
                                     i0_identity, norm_exponent)
from padicamen.hopf import (BasisMap, basis_tensor, eq1_check, lemma2_data,
                            lemma2_iso_check, pi0, verify_hopf_axioms)

PRIMES = (2, 3, 5, 7)


def verdict(num, ok, detail):
    line = "ACCEPTANCE %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def test_acceptance_1_separating_example(tmp_path):
    worst = 0.0
    bad = []
    for p in PRIMES:
        out = tmp_path / ("cert_%d.json" % p)
        t0 = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["check", "--group", "cyclic:%d" % p,
                           "--prime", str(p), "--out", str(out)])
        elapsed = time.monotonic() - t0
        worst = max(worst, elapsed)
        doc = json.loads(out.read_text(encoding="utf-8"))
        witness = doc["schikhof"]["method_lattice"]["witness"]
        case_ok = (
            rc == 0
            and doc["johnson"]["amenable"] is True
            and doc["schikhof"]["amenable"] is False
            and doc["johnson"]["mean_norm_exponent"] == 1
            and witness["s1"] == ["0"]
            and witness["s2"] == [str(i) for i in range(p)]
            and witness["index"] == p
            and elapsed < 1.0
        )
        if not case_ok:
            bad.append((p, rc, elapsed))
    verdict(1, not bad,
            "4 primes, witness ({e}, G, index p) each, slowest case %.2fs"
            % worst)


def test_acceptance_2_schikhof_method_agreement():
    t0 = time.monotonic()
    cases = 0
    bad = []
    for grp in catalog(16):
        subs, mean = enumerate_subgroups(grp), johnson_check(grp)
        for p in PRIMES:
            sv = schikhof_check(grp, p, subs, mean)
            expected = grp.order % p != 0
            if not (sv.amenable == (sv.witness is None) == expected):
                bad.append((grp.name, p))
            cases += 1
    elapsed = time.monotonic() - t0
    verdict(2, not bad and cases >= 80 and elapsed < 30.0,
            "%d cases agree with the order divisibility rule in %.2fs"
            % (cases, elapsed))


def test_acceptance_3_virtual_diagonal_round_trip():
    small_elapsed = 0.0
    cases = 0
    bad = []
    for grp in catalog(24):
        n = grp.order
        closed_form = {
            g * n + grp.inverses[g]: Fraction(1, n) for g in range(n)
        }
        t0 = time.monotonic()
        alg = GroupAlgebra(grp)
        d = virtual_diagonal_construct(grp, johnson_check(grp))
        one = alg.one()
        balanced = all(
            tensor_of(alg.delta(a), one, alg.enveloping) * d
            == tensor_of(one, alg.delta(a), alg.enveloping) * d
            for a in range(n)
        )
        mean = mean_from_diagonal(d)
        case_ok = (
            balanced
            and pi0(d) == one
            and d.coeffs == closed_form
            and mean.coeffs == dict.fromkeys(range(n), Fraction(1, n))
        )
        elapsed = time.monotonic() - t0
        if n <= 12:
            small_elapsed += elapsed
        if not case_ok:
            bad.append(grp.name)
        cases += 1
    verdict(3, not bad and small_elapsed < 60.0,
            "%d cases match the closed form, order <= 12 portion %.2fs"
            % (cases, small_elapsed))


def test_acceptance_4_hopf_axiom_suite(monkeypatch):
    t0 = time.monotonic()
    cases = 0
    bad = []
    for grp in catalog(12):
        hopf = verify_hopf_axioms(grp)
        eq1 = eq1_check(grp)
        if not (all(r.passed for r in hopf.values()) and all(eq1.values())):
            bad.append(grp.name)
        cases += 1
    # the identity for S, in the one map the antipode checks all read
    monkeypatch.setattr("padicamen.hopf.antipode_map",
                        lambda group: BasisMap.identity(group.order))
    control = verify_hopf_axioms(symmetric(3))
    control_ok = (not control["antipode_left"].passed
                  and not control["antipode_right"].passed
                  and not all(r.passed for r in control.values()))
    elapsed = time.monotonic() - t0
    verdict(4, not bad and control_ok and elapsed < 30.0,
            "%d positive cases, corrupted antipode rejected, %.2fs"
            % (cases, elapsed))


def test_acceptance_5_quotient_isomorphism():
    t0 = time.monotonic()
    cases = 0
    bad = []
    for grp in catalog(8):
        report = lemma2_iso_check(grp, lemma2_data(grp))
        if not (report.quotient_dim == grp.order and report.bijective
                and report.all_pass):
            bad.append(grp.name)
        cases += 1
    elapsed = time.monotonic() - t0
    verdict(5, not bad and elapsed < 60.0,
            "%d cases, quotient dim |G| and bijective each time, %.2fs"
            % (cases, elapsed))


def test_acceptance_6_derivations_all_inner(tmp_path):
    t0 = time.monotonic()
    cases = 0
    bad = []
    out = tmp_path / "derivations.json"
    for grp in catalog(8):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["derivations", "--group", grp.name, "--prime", "2",
                           "--out", str(out)])
        doc = json.loads(out.read_text(encoding="utf-8"))
        if rc != 0 or doc["all_inner"] is not True:
            bad.append(grp.name)
        for name, section in doc["bimodules"].items():
            if section["all_inner"] is not True or \
                    section["derivation_dim"] != section["inner_dim"]:
                bad.append((grp.name, name))
            cases += 1
    elapsed = time.monotonic() - t0
    verdict(6, not bad and elapsed < 120.0,
            "%d (group, bimodule) cases all inner, %.2fs"
            % (cases, elapsed))


def _random_fraction(rng, p):
    num = rng.randint(-400, 400)
    den = rng.randint(1, 400)
    x = Fraction(num, den)
    shift = p ** rng.randint(0, 3)
    return x / shift if rng.random() < 0.5 else x * shift


def _random_element(rng, alg, p):
    coeffs = {
        g: Fraction(0) if rng.random() < 0.3 else _random_fraction(rng, p)
        for g in range(alg.group.order)
    }
    return from_coeffs(alg, coeffs)


def test_acceptance_7_randomized_norm_laws():
    rng = random.Random(20260818)
    samples = 1200

    ultrametric = 0
    for _ in range(samples):
        p = PRIMES[rng.randrange(4)]
        a, b = _random_fraction(rng, p), _random_fraction(rng, p)
        va, vb, vs = valuation(a, p), valuation(b, p), valuation(a + b, p)
        assert vs >= min(va, vb)
        if va != vb:
            assert vs == min(va, vb)
        ultrametric += 1

    pool = [
        (GroupAlgebra(grp), p)
        for grp in (cyclic(5), symmetric(3), dihedral(4))
        for p in (2, 3)
    ]
    submult = 0
    epsmult = 0
    for _ in range(samples):
        alg, p = pool[rng.randrange(len(pool))]
        f, h = _random_element(rng, alg, p), _random_element(rng, alg, p)
        fh = convolve(f, h)
        nf, nh, nfh = norm_exponent(f, p), norm_exponent(h, p), \
            norm_exponent(fh, p)
        if nf is None or nh is None:
            assert nfh is None
        else:
            assert nfh is None or nfh <= nf + nh
        submult += 1
        assert augmentation(fh) == augmentation(f) * augmentation(h)
        epsmult += 1

    verdict(7, min(ultrametric, submult, epsmult) >= 1000,
            "%d ultrametric, %d submultiplicativity, %d augmentation "
            "samples, zero violations" % (ultrametric, submult, epsmult))


def test_acceptance_8_ideal_identities():
    cases = 0
    bad = []
    for grp in catalog(24):
        n = grp.order
        e = grp.identity
        alg = GroupAlgebra(grp)
        e0 = i0_identity(alg)
        env = alg.enveloping
        d = from_coeffs(env, {
            g * n + grp.inverses[g]: Fraction(1, n) for g in range(n)
        })
        u = diagonal_ideal_identity(grp, d)
        u_ok = (u == basis_tensor(env, e, e) - d
                and pi0(u).is_zero())
        # spot re-check on a few kernel basis vectors
        for g in range(1, min(n, 4)):
            v = (basis_tensor(env, g, g)
                 - basis_tensor(env, e, grp.table[g][g]))
            u_ok = u_ok and v * u == v
        for p in PRIMES:
            if n == 1:
                e0_ok = e0.is_zero() and norm_exponent(e0, p) is None
            else:
                e0_ok = norm_exponent(e0, p) == valuation(n, p)
            if not (e0_ok and u_ok):
                bad.append((grp.name, p))
            cases += 1
    verdict(8, not bad,
            "%d cases: e_0 norm exponent v_p(|G|), 1(x)1 - d a right "
            "identity of ker pi_0" % cases)
