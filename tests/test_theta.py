"""Theta functions: builtins, evaluation, inversion, transforms, files."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

import itermellin.theta as theta_module
from itermellin.engine import _zero_envelope
from itermellin.ratfun import AffineForm
from itermellin.theta import (
    GrowthBound,
    KernelMismatchError,
    TailSeries,
    ThetaFunction,
    TruncationError,
    ValidationError,
    _pack,
    builtin_registry,
    d_w,
    differentiate,
    inversion_defect,
    make_builtin_theta,
    mul_monomial,
    parse_theta_text,
    parse_theta_token,
    pointwise_product,
    rescale,
    validate_inversion,
)
from itermellin.words import Letter

BUILTINS = [
    ("riemann", None),
    ("eisenstein", 4),
    ("eisenstein", 6),
    ("delta", None),
    ("theta_plus", None),
    ("theta_minus", None),
    ("jacobi2", None),
    ("jacobi3", None),
    ("jacobi4", None),
]


def theta(name, weight=None):
    return make_builtin_theta(name, weight)


def tail_coeff(th, n):
    mu, terms = th.tail.group(n)
    assert len(terms) == 1 and terms[0][1] == 0.0
    return terms[0][0]


class TestBuiltins:
    def test_theta_plus_coefficients(self):
        tp = theta("theta_plus")
        assert [tail_coeff(tp, n) for n in range(1, 6)] == [8, 24, 32, 24, 48]

    def test_theta_minus_coefficients(self):
        tm = theta("theta_minus")
        assert [tail_coeff(tm, n) for n in range(1, 6)] == [-24, 24, -96, 24, -144]

    def test_eisenstein4_constant(self):
        e4 = theta("eisenstein", 4)
        assert e4.poly_part == ((Fraction(1, 240), Fraction(0)),)
        e6 = theta("eisenstein", 6)
        assert e6.poly_part == ((Fraction(-1, 504), Fraction(0)),)

    def test_delta_a2(self):
        assert tail_coeff(theta("delta"), 2) == -24

    def test_riemann_shape(self):
        rie = theta("riemann")
        assert rie.kernel_power == 2 and rie.weight == 1 and rie.sign == 1
        assert rie.dual is rie
        assert rie.tail.group(3)[0] == pytest.approx(math.pi * 9)

    def test_jacobi_duals(self):
        j2, j4 = theta("jacobi2"), theta("jacobi4")
        assert j2.dual is j4 and j4.dual is j2
        assert j2.weight == Fraction(1, 2) and j4.weight == Fraction(1, 2)
        assert theta("jacobi3").dual is theta("jacobi3")
        assert j2.poly_part == ()
        assert tail_coeff(j4, 1) == -2 and tail_coeff(j4, 2) == 2

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_builtin_theta("unknown")

    def test_eisenstein_bad_weight(self):
        with pytest.raises(ValueError):
            make_builtin_theta("eisenstein", 3)
        with pytest.raises(ValueError):
            make_builtin_theta("eisenstein", 2)
        with pytest.raises(ValueError):
            make_builtin_theta("eisenstein")


class TestEval:
    def test_riemann_full_at_one(self):
        # 1 + 2 sum exp(-pi n^2), five terms at 1e-12
        target = 1.0 + 2 * sum(math.exp(-math.pi * n * n) for n in range(1, 6))
        assert theta("riemann").eval(1.0, "full", 1e-12) == pytest.approx(
            target, abs=1e-12
        )

    def test_poly_is_exact_polynomial(self):
        e4 = theta("eisenstein", 4)
        assert e4.eval(1.0, "poly") == 1.0 / 240
        assert e4.eval(7.3, "poly") == 1.0 / 240

    def test_tail_vanishes_at_large_t(self):
        e4 = theta("eisenstein", 4)
        assert abs(e4.eval(20.0, "tail", 1e-14)) <= 2 * math.exp(-2 * math.pi * 20) * 1.01
        assert e4.eval(20.0, "full", 1e-14) == pytest.approx(1 / 240, abs=1e-14)

    def test_full_equals_poly_plus_tail_exactly(self):
        for name, w in BUILTINS:
            th = theta(name, w)
            for t in (0.3, 0.9, 1.7):
                full = th.eval(t, "full", 1e-13)
                assert full == th.eval(t, "poly") + th.eval(t, "tail", 1e-13)

    def test_small_t_uses_inversion(self):
        rie = theta("riemann")
        # theta0(0.1) = 10*theta(10) - 1 = 10*(1 + tiny) - 1 = 9 + tiny
        assert rie.eval(0.1, "tail", 1e-12) == pytest.approx(9.0, abs=1e-12)

    def test_truncation_error(self, monkeypatch):
        monkeypatch.setattr("itermellin.theta.MAX_TAIL_GROUPS", 2)
        j3 = theta("jacobi3")
        with pytest.raises(TruncationError):
            j3.eval_array(np.array([0.51]), "tail", 1e-12)

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            theta("riemann").eval(0.0)

    def test_flat_terms_of_the_first_groups(self):
        """_flat_arrays(n) holds the terms of the first n groups, in order,
        as the stream grows, as views of the stored arrays."""
        sizes = [1, 3, 2, 4, 1]
        groups = [(float(n), tuple((float(n), 0.1 * j) for j in range(size)))
                  for n, size in enumerate(sizes, 1)]
        series = TailSeries(list_stream(groups), GrowthBound(1.0, 0.0, 1.0))
        for n in (2, 1, 5, 4, 9):
            series.ensure(n)
            mu, a, nu = series._flat_arrays(n)
            want = [(float(g), 0.1 * j) for g in range(1, min(n, 5) + 1) for j in range(sizes[g - 1])]
            assert list(zip(mu, nu)) == want and list(a) == list(mu)
        flat = series._flat_arrays(3)
        assert all(np.shares_memory(view, whole) for view, whole in zip(flat, series._arrays[2:]))


class TestInversion:
    def test_riemann_fixed_point(self):
        assert inversion_defect(theta("riemann"), 1.0, 1e-12) < 1e-13

    def test_riemann_generic(self):
        assert inversion_defect(theta("riemann"), 1.7, 1e-12) < 1e-10

    def test_jacobi2_against_dual(self):
        # theta2(1/t) = sqrt(t) theta4(t), both sides by direct summation
        j2 = theta("jacobi2")
        t = 1.3
        lhs = sum(2 * math.exp(-math.pi * (n - 0.5) ** 2 / t) for n in range(1, 40))
        rhs = math.sqrt(t) * (
            1 + sum(2 * (-1) ** n * math.exp(-math.pi * n * n * t) for n in range(1, 40))
        )
        assert abs(lhs - rhs) < 1e-10
        assert inversion_defect(j2, 1.3, 1e-12) < 1e-10

    @pytest.mark.parametrize("name,weight", BUILTINS)
    def test_all_builtins_log_uniform(self, name, weight):
        th = theta(name, weight)
        for t in np.exp(np.linspace(math.log(0.5), math.log(2.0), 20)):
            assert inversion_defect(th, float(t), 1e-11) < 1e-9

    def test_array_of_points(self):
        """At an array of points, each side is one evaluation; the defects
        are those of the points one at a time, up to roundoff."""
        j2 = theta("jacobi2")
        ts = [0.7, 1.0, 1.6]
        defects = inversion_defect(j2, np.array(ts), 1e-12)
        assert defects.shape == (3,)
        for t, defect in zip(ts, defects):
            assert abs(defect - inversion_defect(j2, t, 1e-12)) < 1e-14

    def test_validation_evaluates_each_side_once(self, monkeypatch):
        calls = []
        eval_array = ThetaFunction.eval_array
        monkeypatch.setattr(ThetaFunction, "eval_array", lambda self, ts, *args: (
            calls.append((self.name, np.size(ts))) or eval_array(self, ts, *args)))
        validate_inversion(theta("jacobi2"))
        assert calls == [("jacobi2", 3), ("jacobi4", 3)]


def tail_partial_sum(th, t, n):
    """The first n groups of th's tail at t, summed term by term."""
    total = 0.0
    for m in range(1, n + 1):
        g = th.tail.group(m)
        if g is None:
            break
        mu, terms = g
        total += sum(a * t**nu * math.exp(-mu * t**th.kernel_power) for a, nu in terms)
    return total


class TestTruncationHonesty:
    @pytest.mark.parametrize("name,weight", BUILTINS)
    def test_bound_dominates_and_decreases(self, name, weight):
        th = theta(name, weight)

        def bound_at(t, n):
            return th.tail.remainder_bound(t, n, th.kernel_power)

        for t in (1.0, 1.5, 3.0):
            prev = None
            for n in (4, 8, 16, 32):
                bound = bound_at(t, n)
                gap = abs(tail_partial_sum(th, t, n) - tail_partial_sum(th, t, 2 * n))
                if math.isfinite(bound):
                    assert gap <= bound + 1e-300
                    if prev is not None and math.isfinite(prev):
                        assert bound <= prev * 1.0000001
                    prev = bound
            # bound is monotone decreasing in t as well
            if math.isfinite(bound_at(1.0, 16)):
                assert bound_at(2.0, 16) <= bound_at(1.0, 16)


class TestTransforms:
    def test_rescale_pointwise(self):
        rie = theta("riemann")
        r2 = rescale(rie, 2)
        for t in (0.8, 1.0, 2.5):
            assert r2.eval(t, "full", 1e-13) == pytest.approx(
                rie.eval(2 * t, "full", 1e-13), abs=1e-12
            )
        validate_inversion(r2)
        assert rescale(rie, 1) is rie

    def test_d_w_preserves_inversion(self):
        dw = d_w(theta("riemann"))
        assert inversion_defect(dw, 1.5, 1e-11) < 1e-9
        assert dw.weight == 1 and dw.sign == 1

    def test_differentiate_matches_central_differences(self):
        rie = theta("riemann")
        a = differentiate(rie)
        h = 1e-5
        fd = -1.3 * (rie.eval(1.3 + h) - rie.eval(1.3 - h)) / (2 * h)
        assert a.eval(1.3) == pytest.approx(fd, abs=1e-9)
        validate_inversion(a)

    def test_transform_growth_bounds_ignore_how_far_the_base_grew(self):
        """differentiate and d_w bound their tails from the first 64 groups
        of the base tails alone, so their growth bounds, and those of their
        duals, are the same before and after the bases grow to 500 groups."""
        j2, j4 = theta_module._jacobi_pair.__wrapped__()

        def bounds():
            return [(r.tail.growth, r.dual.tail.growth) for r in (differentiate(j2), d_w(j2))]

        before = bounds()
        assert j2.tail.ensure(500) >= 500 and j4.tail.ensure(500) >= 500
        assert bounds() == before

    def test_mul_monomial(self):
        rie = theta("riemann")
        mm = mul_monomial(rie, 1)
        assert mm.eval(1.7) == pytest.approx(1.7 * rie.eval(1.7), abs=1e-13)
        assert mm.weight == -1
        with pytest.raises(ValueError):
            mul_monomial(rie, -1)  # poly part 1*t^0 cannot shift down

    def test_pointwise_product_jacobi3(self):
        j3 = theta("jacobi3")
        prod = pointwise_product(j3, j3)
        # coefficient of exp(-2 pi t) from the n = +-1 square pairs
        groups = {round(g[0] / math.pi): g[1] for g in (prod.tail.group(n) for n in range(1, 4))}
        assert groups[2] == ((4.0, 0.0),)
        assert prod.eval(1.2) == pytest.approx(j3.eval(1.2) ** 2, abs=1e-12)
        assert prod.weight == 1 and prod.sign == 1

    def test_non_self_dual_transforms_pair_with_the_dual_transform(self):
        j2, j4 = theta("jacobi2"), theta("jacobi4")
        clone = parse_theta_text(J2_CLONE_FILE, {"jacobi4": j4})
        for r, dual_name in ((mul_monomial(j4, 1), "(jacobi2*t^1)"),
                             (d_w(j2), "Dw(jacobi4)"),
                             (pointwise_product(j2, j4), "(jacobi4.jacobi2)"),
                             (mul_monomial(clone, 1), "(jacobi4*t^1)"),
                             (rescale(j2, 0.7), "(0.7^(-1/2)*jacobi4@1/0.7)"),
                             (rescale(j4, 1.3), "(1.3^(-1/2)*jacobi2@1/1.3)"),
                             (rescale(clone, 1.3), "(1.3^(-1/2)*jacobi4@1/1.3)"),
                             (differentiate(j2), "(1/2-A)(jacobi4)"),
                             (differentiate(j4), "(1/2-A)(jacobi2)"),
                             (differentiate(clone), "(1/2-A)(jacobi4)")):
            assert r.dual.name == dual_name and r.dual.dual is r
            validate_inversion(r)
        assert j4.dual is j2 and j2.dual is j4

    def test_product_kernel_mismatch(self):
        with pytest.raises(KernelMismatchError):
            pointwise_product(theta("riemann"), theta("eisenstein", 4))

    def test_pointwise_product_jacobi3_counts_sums_of_two_squares(self):
        """jacobi3(t)^2 = sum_k r2(k) exp(-pi k t), r2(k) the number of ways
        to write k as a sum of two squares of integers: its first 60 groups
        are those of the k with r2(k) != 0, exactly."""

        def r2(k):
            m = math.isqrt(k)
            return sum(a * a + b * b == k for a in range(-m, m + 1) for b in range(-m, m + 1))

        prod = pointwise_product(theta("jacobi3"), theta("jacobi3"))
        expected = [(math.pi * k, ((float(r2(k)), 0.0),)) for k in range(1, 200) if r2(k)]
        assert [prod.tail.group(n) for n in range(1, 61)] == expected[:60]

    def test_product_lattice_mismatch(self):
        """The frequencies pi n^2 of jacobi3 and sqrt(2) pi n^2 of
        jacobi3(sqrt(2) t) lie on no common lattice."""
        with pytest.raises(KernelMismatchError):
            pointwise_product(theta("jacobi3"), rescale(theta("jacobi3"), math.sqrt(2)))


RIEMANN_FILE = """
name riemann_file
weight 1
sign +1
dual self
kernel gauss scale 3.141592653589793
poly 1 0
freq default
coeffs 2 2 2 2 2 2 2 2 2 2 2 2
growth 2 0
"""

BAD_SIGN_FILE = RIEMANN_FILE.replace("sign +1", "sign -1")

# weight-2 level-11 eigenform; kernel scale 2 pi / sqrt(11)
LEVEL11_FILE = """
name f11
weight 2
sign +1
dual self
kernel exp scale 1.8944516501989659
poly 0 0
freq default
coeffs 1 -2 -1 2 1 2 -2 0 -2 -2 1 -2 4 4 -1 -4 -2 4 0 2
growth 8 2
conductor 11
"""

# clone of jacobi2 whose dual is the builtin jacobi4
J2_CLONE_FILE = """
name j2clone
weight 1/2
sign +1
dual jacobi4
kernel exp scale 3.141592653589793
freq 0.25 2.25 6.25 12.25 20.25 30.25 42.25 56.25
coeffs 2 2 2 2 2 2 2 2
growth 2 0
"""


class TestThetaFiles:
    def test_riemann_roundtrip(self):
        th = parse_theta_text(RIEMANN_FILE)
        assert inversion_defect(th, 1.5, 1e-10) < 1e-8
        rie = theta("riemann")
        assert th.eval(1.0, "full", 1e-12) == pytest.approx(
            rie.eval(1.0, "full", 1e-12), abs=1e-12
        )

    def test_inconsistent_sign_fails_validation(self):
        with pytest.raises(ValidationError) as exc:
            parse_theta_text(BAD_SIGN_FILE)
        assert exc.value.t in (0.7, 1.0, 1.6)

    def test_wrong_weight_fails_at_the_first_failing_point(self):
        """Weight 2 fails at t = 0.7 and 1.6 (at t = 1 both sides agree
        whatever the weight); the error names 0.7, the first."""
        with pytest.raises(ValidationError, match=r"inversion defect .* at t=0\.7 ") as exc:
            parse_theta_text(RIEMANN_FILE.replace("weight 1", "weight 2"))
        assert exc.value.t == 0.7

    def test_level11_eigenform(self):
        th = parse_theta_text(LEVEL11_FILE)
        scale = 2 * math.pi / math.sqrt(11)
        coeffs = [1, -2, -1, 2, 1, 2, -2, 0, -2, -2, 1, -2, 4, 4, -1, -4, -2, 4, 0, 2]
        direct = sum(a * math.exp(-scale * n) for n, a in enumerate(coeffs, start=1))
        assert th.eval(1.0, "full", 1e-12) == pytest.approx(direct, abs=1e-12)
        assert th.conductor == 11.0
        assert inversion_defect(th, 1.3, 1e-10) < 1e-8

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "riemann.theta"
        path.write_text(RIEMANN_FILE)
        from itermellin.theta import load_theta_from_file

        th = load_theta_from_file(path)
        assert th.name == "riemann_file"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_theta_text("name x\nweight 1\nsign +1\ncoeffs 1\ngrowth 1 0")
        with pytest.raises(ValueError):
            parse_theta_text(
                "name x\nweight 1\nsign +1\nkernel exp scale -1\ncoeffs 1\ngrowth 1 0"
            )

    def test_dual_resolved_from_registry(self):
        registry = {"jacobi4": make_builtin_theta("jacobi4")}
        th = parse_theta_text(J2_CLONE_FILE, registry)
        assert th.dual.name == "jacobi4"
        assert inversion_defect(th, 1.2, 1e-10) < 1e-8
        # the link is one way: the builtin keeps its own partner
        assert registry["jacobi4"].dual is make_builtin_theta("jacobi2")

    def test_missing_dual_in_registry(self):
        text = "name x\nweight 1\nsign +1\ndual ghost\nkernel exp scale 1\ncoeffs 1\ngrowth 1 0"
        with pytest.raises(ValueError):
            parse_theta_text(text, {})


class TestTokens:
    def test_builtin_tokens_build_that_theta_alone(self, monkeypatch):
        """Every registry name is a token for the registry's own theta, as
        are the family and alias spellings; none of them builds the
        registry."""
        registry = builtin_registry()

        def unbuilt():
            raise AssertionError("a builtin token built the whole registry")

        monkeypatch.setattr(theta_module, "builtin_registry", unbuilt)
        for name, th in registry.items():
            assert th.name == name and parse_theta_token(name) is th
        for token, name in (("eisenstein:4", "eisenstein4"), ("eisenstein:8", "eisenstein8"),
                            (" theta+ ", "theta_plus"), ("theta-", "theta_minus"),
                            ("jacobi:2", "jacobi2"), ("jacobi:4", "jacobi4")):
            assert parse_theta_token(token) is registry[name], token
        for k in (10, theta_module.MAX_EISENSTEIN_WEIGHT):
            assert parse_theta_token(f"eisenstein:{k}") is make_builtin_theta("eisenstein", k)

    def test_file_token_resolves_its_dual_in_the_registry(self, tmp_path):
        path = tmp_path / "j2.theta"
        path.write_text(J2_CLONE_FILE)
        assert parse_theta_token(f"file:{path}").dual is make_builtin_theta("jacobi4")


class TestEnvelopes:
    """Truncation envelopes must be real bounds: growth(part) for t >= 1,
    and the engine's bound through the inversion law for t <= 1/2."""

    @staticmethod
    def thetas():
        e4, j2, j4 = theta("eisenstein", 4), theta("jacobi2"), theta("jacobi4")
        return list(builtin_registry().values()) + [
            mul_monomial(theta("riemann"), Fraction(3, 2)), d_w(e4),
            pointwise_product(e4, theta("jacobi3")),
            mul_monomial(j4, 1), d_w(j2), pointwise_product(j2, j4),
            rescale(theta("delta"), 0.7), rescale(j2, 1.3),
            differentiate(theta("riemann")), differentiate(j4)]

    @pytest.mark.parametrize("part", ["poly", "tail", "full"])
    def test_envelopes_bound_the_part(self, part):
        big, small = np.geomspace(1.0, 64.0, 49), np.geomspace(1e-3, 0.5, 49)
        for th in self.thetas():
            b, d = th.growth(part)
            assert np.all(np.abs(th.eval_array(big, part)) <= b * big**d * (1 + 1e-12) + 1e-12)
            c, gamma, _ = _zero_envelope(Letter(th, part, AffineForm.slot(0, 1)))
            assert np.all(
                np.abs(th.eval_array(small, part)) <= c * small**-gamma * (1 + 1e-12) + 1e-12)

    def test_envelope_of_a_mono_letter_raises(self):
        with pytest.raises(ValueError, match="no envelope at 0 for part 'mono'"):
            _zero_envelope(Letter(theta("riemann"), "mono", AffineForm.slot(0, 1)))


# sha256 (first 32 hex digits) of repr([tail.group(n) for n in range(1, 201)]),
# recorded with the per-group streams that the block streams replaced
PARENT_GROUP_DIGESTS = {
    "riemann": "007153ad660d6f4422d7c12fffd0b201",
    "eisenstein4": "cd43128b3def33b3171d9a923868407b",
    "eisenstein6": "6c3337281e699cc16b86e97ef256a3ec",
    "eisenstein8": "b512b05e7802bb8758d8c851fbdd4255",
    "delta": "23cea717afe78a1a0bb5bd964bdc687a",
    "theta_plus": "63a02f511ac04ea6ae309f50176ecd89",
    "theta_minus": "e8ce5a86ff0adbbfaa13c0a51b62f6d9",
    "jacobi2": "4fb0bb19bcbce7fd6b957015eebbc483",
    "jacobi3": "007153ad660d6f4422d7c12fffd0b201",
    "jacobi4": "ab48ec2b65bd5c0b9772c88ca7be5106",
    "eisenstein22": "f4a8dfc7fbd8713053f8b012cbf116fe",
    "rescale(riemann, 1.7)": "d4143e32b35b5d4e2b6c9947febb1874",
    "rescale(jacobi4, 0.6)": "48903f370e38de975b3cf2f8d148cb27",
    "differentiate(eisenstein4)": "3a244673df32ee4a0b87881ba65216c2",
    "differentiate(jacobi2)": "98c99b8a12b142b1e57bbf8a165e8000",
    "mul_monomial(jacobi3, 1/2)": "fc56c66028d5d228b729eecf63d15444",
    "mul_monomial(delta, 3)": "cfccf85028dbd683d5f41c338a91e740",
    "pointwise_product(jacobi3, jacobi3)": "3311b1dbde43b4e7321266e8f574bb71",
    "pointwise_product(eisenstein4, theta_plus)": "ce1bbe371bca25d822ecaf901efaa3d9",
    "lattice_theta(0.123+1.234j)": "f96f8ac1c1161617a57911f222ad94ce",
}


def digest_thetas():
    from itermellin import oracles

    b = builtin_registry()
    return {**b, "eisenstein22": theta("eisenstein", 22),
            "rescale(riemann, 1.7)": rescale(b["riemann"], 1.7),
            "rescale(jacobi4, 0.6)": rescale(b["jacobi4"], 0.6),
            "differentiate(eisenstein4)": differentiate(b["eisenstein4"]),
            "differentiate(jacobi2)": differentiate(b["jacobi2"]),
            "mul_monomial(jacobi3, 1/2)": mul_monomial(b["jacobi3"], Fraction(1, 2)),
            "mul_monomial(delta, 3)": mul_monomial(b["delta"], 3),
            "pointwise_product(jacobi3, jacobi3)": pointwise_product(b["jacobi3"], b["jacobi3"]),
            "pointwise_product(eisenstein4, theta_plus)":
                pointwise_product(b["eisenstein4"], b["theta_plus"]),
            "lattice_theta(0.123+1.234j)": oracles.lattice_theta(0.123 + 1.234j)}


def list_stream(groups):
    return lambda start, stop: _pack(groups[start:stop])


class TestTailStream:
    """The block protocol: blocks(start, stop) hands over groups start + 1
    .. stop, and a shorter block ends the stream."""

    def test_groups_equal_the_per_group_streams(self):
        thetas = digest_thetas()
        assert thetas.keys() == PARENT_GROUP_DIGESTS.keys()
        for name, th in thetas.items():
            groups = [th.tail.group(n) for n in range(1, 201)]
            digest = hashlib.sha256(repr(groups).encode()).hexdigest()[:32]
            assert digest == PARENT_GROUP_DIGESTS[name], name

    def test_frequency_that_does_not_increase_raises(self):
        groups = [(float(n), ((1.0, 0.0),)) for n in (1, 2, 3, 3, 4)]
        inside = TailSeries(list_stream(groups), GrowthBound(1.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            inside.ensure(5)  # groups 3 and 4 in one block
        assert inside.ensure(0) == 0  # nothing of that block was kept
        across = TailSeries(list_stream(groups), GrowthBound(1.0, 0.0, 1.0))
        assert across.ensure(3) == 3
        with pytest.raises(ValueError, match="strictly increasing"):
            across.ensure(5)  # group 4 repeats group 3, the last of the first block
        assert across.ensure(0) == 3 and across.group(3) == (3.0, ((1.0, 0.0),))

    def test_finite_stream_bound_is_zero_past_its_end(self):
        groups = [(float(n), ((1.0, 0.0),)) for n in range(1, 6)]
        series = TailSeries(list_stream(groups), GrowthBound(1.0, 0.0, 1.0))
        assert series.remainder_bound(1.0, 5, 1) > 0  # its end is not known yet
        assert series.ensure(9) == 5 and series.group(6) is None
        assert [series.remainder_bound(1.0, n, 1) for n in (5, 6, 50)] == [0.0] * 3
        assert series.remainder_bound(1.0, 4, 1) > 0
        assert series.needed_groups(1.0, 1e-300, 1, 4000) == 5

    def test_needed_groups_asks_the_stream_once(self):
        asked = []

        def blocks(start, stop):
            asked.append((start, stop))
            return _pack([(math.pi * n * n, ((2.0, 0.0),)) for n in range(start + 1, stop + 1)])

        series = TailSeries(blocks, GrowthBound(2.0, 0.0, math.pi, 2.0))
        n = series.needed_groups(0.05, 1e-14, 2, 4000)
        assert n > 8 and asked == [(0, n)]

    def test_dual_and_self_dual(self):
        self_dual = [th for name, th in builtin_registry().items()
                     if name not in ("jacobi2", "jacobi4")]
        self_dual += [parse_theta_text(RIEMANN_FILE), mul_monomial(theta("jacobi3"), Fraction(1, 2))]
        for th in self_dual:
            assert th.self_dual and th.dual is th, th
        j2, j4 = theta("jacobi2"), theta("jacobi4")
        clone = parse_theta_text(J2_CLONE_FILE, {"jacobi4": j4})
        shifted = mul_monomial(j4, 1)
        for th, dual in ((j2, j4), (j4, j2), (clone, j4), (shifted, shifted.dual)):
            assert not th.self_dual and th.dual is dual and dual is not th
        assert shifted.dual.dual is shifted and shifted.dual.name == "(jacobi2*t^1)"
