"""Prints one PASS/FAIL line per acceptance criterion after the run."""

_CRITERIA = {
    "01": "golden <24,26,36,39>: Betti {72,78,156}, exact fibers, no "
          "isolated factorization of 156, presentation size 3, CI, free "
          "for (24,36,26,39), under 50 ms",
    "02": "golden <16,20,30,45>: I_b set, single Betti-minimal 60, "
          "alpha-rectangular for generator 20",
    "03": "golden <3,4,5>: I_s set and tight bound chain e+3 = sum(c_i)-e+2 "
          "= i_s = 6",
    "04": "20 random coprime pairs with n1*n2 <= 400: i_s = n1*n2, i_b = 2",
    "05": "minimum-Frobenius Betti-divisible search: (523, <30,42,105,140>) "
          "with >= 2 distinct Betti elements, under 2 s; unrestricted "
          "default is (383, <30,42,70,105>) by design (single Betti 210)",
    "06": "parametrization round trip a=(7,5,2,3), f=(1,1,1,2) <-> "
          "<30,42,105,140>",
    "07": "affine goldens: <(1,0),(0,2),(0,3)> and the non-simplicial "
          "4-generator example, certified by brute force to degree 8",
    "08": "theorem harness over the genus <= 15 corpus: zero violations, "
          "strictness witness for all 6 chain inclusions",
    "09": "oracle equivalence: Betti via bit planes vs brute sweep "
          "(F <= 60); R-classes vs O(n^2) closure on fibers <= 50",
    "10": "determinism: two `verify --genus 12 --threads 8` runs are "
          "byte-identical JSON",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            num = nodeid.split("test_criterion_")[1][:2]
            verdict = "PASS" if outcome == "passed" else "FAIL"
            results[num] = verdict
    if not results:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for num in sorted(_CRITERIA):
        verdict = results.get(num, "NOT RUN")
        tw.write_line(f"ACCEPTANCE {num} [{verdict}] {_CRITERIA[num]}")
