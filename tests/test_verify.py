import random
import subprocess
import sys
from collections import Counter

from rgpoly import verify
from rgpoly.convert import plane_to_ribbon, ribbon_to_plane
from rgpoly.poly import Polynomial, parse
from rgpoly.ribbon import RibbonGraph, make_edge
from rgpoly.verify import (
    CheckReport,
    check_bracket,
    check_duality,
    check_main_theorem,
    check_subset_identities,
    generate,
    run_suite,
)


def test_generators_are_deterministic():
    for kind in ("ribbon", "rpg", "link"):
        a = generate(kind, 1, 4)
        b = generate(kind, 1, 4)
        assert repr(a) == repr(b)
        if kind == "ribbon":
            assert a.vertices == b.vertices
            assert [e.ends for e in a.edges] == [e.ends for e in b.edges]


def test_generator_postconditions():
    rng = random.Random(0)
    for trial in range(20):
        seed, size = rng.randrange(10**6), rng.randint(0, 6)
        G = generate("rpg", seed, size)
        G.map.require_plane()
        L = generate("link", seed, min(size, 4))
        assert all(len(c) == 4 for c in L.map.vertices)


def test_main_theorem_loop_cases():
    plain = RibbonGraph([("a", "b")], [make_edge("a", "b", label="e")])
    rep = check_main_theorem(plain)
    assert rep.passed
    assert parse(rep.left) == parse("x_e*Y + y_e")
    twisted = RibbonGraph([("a", "b")], [make_edge("a", "b", sign=-1, label="e")])
    rep = check_main_theorem(twisted)
    assert rep.passed
    assert parse(rep.left) == parse("y_e + x_e*X^(-1/2)*Y^(1/2)")


def test_main_theorem_from_the_plane_side():
    # the theorem on the ribbon graph rebuilt from a relative plane graph
    for seed in range(30):
        for size in range(8):
            R = plane_to_ribbon(generate("rpg", seed, size))
            assert check_main_theorem(R).passed, (seed, size)


def test_main_theorem_counts_each_map_once(monkeypatch):
    # k of the plane map is read by its genus check, by the theorem's
    # prefactor and by relative_tutte: one union-find pass over all its
    # edges serves them all, and one serves R
    passes = Counter()
    roots = RibbonGraph.roots

    def counted(self, subset=None):
        if subset is not None:
            subset = list(subset)
        if subset is None or sorted(subset) == list(range(self.num_edges)):
            passes[id(self)] += 1
        return roots(self, subset)

    monkeypatch.setattr(RibbonGraph, "roots", counted)
    assert check_main_theorem(generate("ribbon", 45, 10)).passed
    assert passes and max(passes.values()) == 1, passes


def test_subset_identities_small():
    R = RibbonGraph([("a", "b", "c", "d")],
                    [make_edge("a", "c", sign=-1, label="e0"),
                     make_edge("b", "d", label="e1")])
    G, cert = ribbon_to_plane(R)
    assert check_subset_identities(R, G, cert).passed


def test_subset_identities_fail_on_a_perturbed_sweep_record(monkeypatch):
    # one more cycle breaks bc(F') = n(F) + delta(H_F); one more join on the
    # vertices lowers k(F), which n(F) reads too; one more join on H's
    # classes lowers k(F u H).  F = [4, 6] is both regular edges of G.
    R = RibbonGraph([("a", "b", "c", "d")],
                    [make_edge("a", "c", sign=-1, label="e0"),
                     make_edge("b", "d", label="e1")])
    G, cert = ribbon_to_plane(R)
    assert G.regular_indices() == [4, 6]
    sweep = verify.sweep
    for field, detail in (
            (2, "F=[4, 6]: bc(F')=n(F)+delta(H_F)"),
            (3, "F=[4, 6]: bc(F')=n(F)+delta(H_F), v(H_F)=k(F)"),
            (4, "F=[4, 6]: k(H_F)=k(FuH)")):

        def perturbed(kernel, ends=(), field=field):
            for record in sweep(kernel, ends):
                if record[0] == 3:
                    record = (*record[:field], record[field] + 1, *record[field + 1:])
                yield record

        monkeypatch.setattr(verify, "sweep", perturbed)
        rep = check_subset_identities(R, G, cert)
        assert not rep.passed and rep.left == detail, field
        assert rep.line() == "FAIL subset_identities"


def test_subset_identities_fail_when_one_stream_ends_early(monkeypatch):
    # a sweep that drops its last record, or adds one past the last mask,
    # must not pass on the subsets the two streams share
    R = RibbonGraph([("a", "b", "c", "d")],
                    [make_edge("a", "c", sign=-1, label="e0"),
                     make_edge("b", "d", label="e1")])
    G, cert = ribbon_to_plane(R)
    sweep = verify.sweep
    for changed, detail in (
            (lambda records: records[:-1], "the sweep ends after 3 of 4 subsets"),
            (lambda records: records + records[-1:],
             "the reference walk ends after 4 of 4 subsets")):

        def short(kernel, ends=(), changed=changed):
            return iter(changed(list(sweep(kernel, ends))))

        monkeypatch.setattr(verify, "sweep", short)
        rep = check_subset_identities(R, G, cert)
        assert not rep.passed and rep.left == detail
        assert rep.line() == "FAIL subset_identities"


def test_report_line_format():
    rep = CheckReport("main_theorem", "inst", True, seed=12)
    assert rep.line(5) == "PASS main_theorem seed=12 size=5"
    rep = CheckReport("duality", "inst", False, seed=3)
    assert rep.line(2) == "FAIL duality seed=3 size=2"
    assert (rep.left, rep.right) == ("", "")


def test_report_renders_its_sides_when_read(monkeypatch):
    rendered = []
    canonical = Polynomial.canonical

    def counted(self):
        rendered.append(self)
        return canonical(self)

    monkeypatch.setattr(Polynomial, "canonical", counted)
    rep = check_main_theorem(generate("ribbon", 3, 4))
    assert rep.passed and not rendered
    assert rep.left == rep.right and len(rendered) == 2
    assert rep.left.startswith("y_e0*") and len(rendered) == 2


def test_bracket_check_registers_no_name_that_never_occurs():
    # link_to_tait weighs positive crossings (1, 1), so substituting x_plus
    # and y_plus would only register two names; a fresh interpreter shows it
    code = ("from rgpoly import poly, verify\n"
            "for seed in range(12):\n"
            "    assert verify.check_bracket(verify.generate('link', seed, seed % 7)).passed\n"
            "print(sorted({'x_plus', 'y_plus'}.intersection(poly._names)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_run_suite_all_checks_pass():
    reports = list(run_suite(["main", "identities", "duality", "bracket"],
                             count=6, seed=42, max_size=4))
    assert len(reports) == 24
    assert all(rep.passed for rep, _ in reports)


def test_every_report_rebuilds_its_instance_from_seed_and_size():
    # a report's (check, seed, size) names the instance generate builds:
    # the public check on it gives the same instance text and both sides
    public = {
        "main": ("ribbon", check_main_theorem),
        "identities": ("ribbon",
                       lambda R: check_subset_identities(R, *ribbon_to_plane(R))),
        "duality": ("rpg", check_duality),
        "bracket": ("link", check_bracket),
    }
    for name, (kind, check) in public.items():
        for rep, size in run_suite([name], 8, 3, 7):
            again = check(generate(kind, rep.seed, size))
            assert ((again.instance, again.passed, again.left, again.right)
                    == (rep.instance, rep.passed, rep.left, rep.right)), (name, rep.seed, size)


def test_failures_reproduce_from_seed():
    first = [(r.name, r.passed, r.seed, s)
             for r, s in run_suite(["duality"], 4, 11, 4)]
    second = [(r.name, r.passed, r.seed, s)
              for r, s in run_suite(["duality"], 4, 11, 4)]
    assert first == second
