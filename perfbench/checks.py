"""Independent checks of the outputs the benchmark's requests produced.

They run in the orchestrating process after the workload process has
exited, so they are outside every timed span and do not touch the measured
process's memory.  References:
  r = 1 eval     closed forms evaluated by mpmath (delta, which has none,
                 goes by its functional equation);
  r >= 2 eval    the functional-equation partner: the reversed dual tuple
                 at the reflected point, times the sign;
  table          the same, on a seeded subset of cells;
  poles          the partner's pole set mapped through the reflection;
  residue        oracles.residue_numeric, a Richardson-extrapolated limit;
  verify         the exit code and every case's ``passed``;
  fresh-theta    E(z, s) = E(z, 1 - s) and E(z, s) = E(-1/z, s).
A value is wrong when it differs from its reference by more than the sum of
the two reported error bars; where no bar is reported, the tolerance the
verify suites use for the same identity applies.
"""

from __future__ import annotations

import json
import random
import sys

RESIDUE_TOL = 1e-7  # suites: "residues vs Richardson limits"
SYMMETRY_TOL = 1e-7  # suites: "E(i,1.3) = E(i,-0.3)"
MODULAR_TOL = 1e-8  # suites: "modular invariance at z"
TABLE_CELLS = 2  # cells checked per sampled table request


class Checker:
    def __init__(self, src: str):
        sys.path.insert(0, src)
        import mpmath
        from itermellin import cli, engine, oracles
        from itermellin.ratfun import AffineForm

        mpmath.mp.dps = 30
        self.mp = mpmath
        self.cli, self.engine, self.oracles, self.AffineForm = cli, engine, oracles, AffineForm

    # -- references ---------------------------------------------------------
    def _closed_form(self, name: str, s: complex):
        """mpmath value of Lambda(theta; s) for a builtin with a known form."""
        mp = self.mp
        s = mp.mpc(s.real, s.imag)
        pi, gamma, zeta = mp.pi, mp.gamma, mp.zeta
        if name == "riemann":
            return pi ** (-s / 2) * gamma(s / 2) * zeta(s)
        if name.startswith("eisenstein"):
            k = int(name[len("eisenstein"):])
            return (2 * pi) ** (-s) * gamma(s) * zeta(s) * zeta(s - k + 1)
        base = pi ** (-s) * gamma(s)
        if name == "theta_plus":  # r_4(n) = 8 sigma(n) - 32 sigma(n/4)
            return 8 * base * (1 - 4 ** (1 - s)) * zeta(s) * zeta(s - 1)
        if name == "theta_minus":
            return base * zeta(s) * zeta(s - 1) * (-24 + 96 * 2 ** (-s) - 96 * 4 ** (-s))
        if name == "jacobi3":
            return 2 * base * zeta(2 * s)
        if name == "jacobi4":
            return -2 * base * (1 - 2 ** (1 - 2 * s)) * zeta(2 * s)
        if name == "jacobi2":
            return 2 * base * (2 ** (2 * s) - 1) * zeta(2 * s)
        return None

    def lambda_reference(self, thetas, point) -> tuple[complex, float]:
        if len(thetas) == 1:
            ref = self._closed_form(thetas[0].name, point[0])
            if ref is not None:
                return complex(ref), 0.0
        e = self.engine
        dual = e.build_expression(e.reversed_dual_tuple(thetas))
        value, err = e.lambda_eval(dual, e.reflected_point(thetas, point))
        return e.functional_sign(thetas) * value, err

    def _value_error(self, thetas, point, value: complex, err: float, lstar=False):
        ref, ref_err = self.lambda_reference(thetas, point)
        if lstar:
            scale = 1.0 + 0.0j
            for th, si in zip(thetas, point):
                scale *= complex(th.conductor) ** (si / 2.0)
            ref, ref_err = ref * scale, ref_err * abs(scale)
        if abs(value - ref) > err + ref_err:
            return f"|value - reference| = {abs(value - ref):.3e} > {err + ref_err:.3e}"
        return None

    def _reflected_poles(self, thetas) -> set[str]:
        e, r = self.engine, len(thetas)
        out = set()
        for h in e.build_expression(e.reversed_dual_tuple(thetas)).pole_forms:
            # h(w_r - s_r, ..., w_1 - s_1) as a form in s
            const, coeffs = h.const, [0] * r
            for i, c in enumerate(h.coeffs):
                j = r - 1 - i
                const += c * thetas[j].weight
                coeffs[j] = -c
            out.add(str(self.AffineForm.make(const, coeffs).canonical()))
        return out

    # -- one request --------------------------------------------------------
    def check(self, req: dict, out, rng: random.Random) -> str | None:
        """None when the output agrees with its reference, else a reason."""
        if req["kind"] == "eisenstein":
            o = self.oracles
            z, s = complex(*req["z"]), complex(*req["s"])
            value = complex(*out)
            sym = o.real_eisenstein(z, 1 - s)[0]
            mod = o.real_eisenstein(-1 / z, s)[0]
            if abs(value - sym) > SYMMETRY_TOL:
                return f"E(z,s) - E(z,1-s) = {abs(value - sym):.3e}"
            if abs(value - mod) > MODULAR_TOL:
                return f"E(z,s) - E(-1/z,s) = {abs(value - mod):.3e}"
            return None
        command = req["argv"][0]
        payload = json.loads(out)
        if command == "verify":
            if not payload["passed"] or not all(c["passed"] for c in payload["cases"]):
                return "verify reported a failed case"
            return None
        meta = req["meta"]
        thetas = self.cli.parse_theta_tuple(meta["theta"])
        if command == "eval":
            point = tuple(complex(*p) for p in meta["point"])
            value = complex(payload["re"], payload["im"])
            return self._value_error(thetas, point, value, payload["err"],
                                     lstar="--lstar" in req["argv"])
        if command == "poles":
            want = self._reflected_poles(thetas)
            if set(payload["poles"]) != want:
                return f"pole set {sorted(payload['poles'])} != reflected {sorted(want)}"
            return None
        if command == "residue":
            point = tuple(complex(*p) for p in meta["point"])
            h = self.cli.parse_hyperplane(meta["plane"], len(thetas))
            expr = self.engine.build_expression(thetas)
            ref = self.oracles.residue_numeric(expr, h, point)
            value = complex(payload["re"], payload["im"])
            if abs(value - ref) > RESIDUE_TOL:
                return f"residue differs from its limit by {abs(value - ref):.3e}"
            return None
        if command == "table":
            r = len(thetas)
            rows = payload["rows"]
            if any(row["pole"] for row in rows):
                return "pole row reported for a grid kept off every pole"
            for row in rng.sample(rows, min(TABLE_CELLS, len(rows))):
                point = tuple(complex(row[f"s{i + 1}_re"], row[f"s{i + 1}_im"]) for i in range(r))
                why = self._value_error(thetas, point, complex(row["re"], row["im"]), row["err"])
                if why:
                    return f"cell {point}: {why}"
            return None
        raise ValueError(f"no check for command {command!r}")
