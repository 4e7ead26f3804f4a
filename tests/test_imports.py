"""Import boundary: the E-value commands run without numpy or the estimation
stack, which load on first use, and `analyze` runs without the simulation
harness.  Each check runs in a fresh interpreter, because this test process
has long since imported everything."""
import json
import subprocess
import sys
import textwrap

from evtv.report import write_cohort_csv
from evtv.simulation import SimulationParams, generate_cohort

# loaded only by estimation and simulation names and commands
HEAVY = ["numpy", "evtv.estimation", "evtv.simulation", "evtv._kernels"]

LIGHT_COMMANDS = [
    ["evalue", "--measure", "rr", "--value", "1.73", "--lo", "1.52", "--hi", "1.98",
     "--timepoints", "2"],
    ["evalue", "--measure", "or", "--value", "1.38", "--rare", "--timepoints", "2", "--human"],
    ["evalue", "--measure", "rr", "--value", "1.73", "--timepoints", "2", "--curve", "50"],
    ["convert", "--measure", "hr", "--value", "0.7", "--lo", "0.5", "--hi", "0.9"],
    ["curve", "--rr", "1.73", "--points", "20"],
    ["curve", "--rr", "1.73", "--limit", "1.52", "--format", "svg"],
    ["--version"],
]


def run_fresh(script: str, *args: str):
    """Run script in a new interpreter and return the JSON it prints last."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_e_value_commands_load_no_numpy():
    steps = run_fresh(
        """
        import contextlib, io, json, sys

        heavy = json.loads(sys.argv[1])
        steps = []

        def record(what, code):
            steps.append([what, code, [m for m in heavy if m in sys.modules]])

        import evtv
        record("import evtv", 0)
        import evtv.cli
        record("import evtv.cli", 0)
        for argv in json.loads(sys.argv[2]):
            with contextlib.redirect_stdout(io.StringIO()):
                record(" ".join(argv), evtv.cli.main(argv))
        print(json.dumps(steps))
        """,
        json.dumps(HEAVY),
        json.dumps(LIGHT_COMMANDS + [["simulate", "--n", "200", "--bootstrap", "0"]]),
    )
    *light, simulate = steps
    assert [s[0] for s in light[2:]] == [" ".join(argv) for argv in LIGHT_COMMANDS]
    for what, code, loaded in light:
        assert (what, code, loaded) == (what, 0, [])
    # the same check sees the stack once a command needs it
    assert simulate[1:] == [0, HEAVY]


def test_analyze_loads_estimation_not_simulation(tmp_path):
    # the one estimation driver lives in `estimation`; analyzing observed
    # data has no use for the simulation harness
    path = tmp_path / "cohort.csv"
    path.write_text(write_cohort_csv(generate_cohort(SimulationParams(n=200), 1).observed))
    code, loaded = run_fresh(
        """
        import contextlib, io, json, sys
        import evtv.cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = evtv.cli.main(["analyze", "--input", sys.argv[2], "--bootstrap", "0"])
        print(json.dumps([code, [m for m in json.loads(sys.argv[1]) if m in sys.modules]]))
        """,
        json.dumps(HEAVY),
        str(path),
    )
    assert (code, loaded) == (0, ["numpy", "evtv.estimation", "evtv._kernels"])


def test_bootstrap_commands_load_no_numpy_ma(tmp_path):
    # np.percentile imports numpy.ma (through np.unique), ~2 MiB resident
    # and tens of milliseconds once per process, for nothing the interval uses
    path = tmp_path / "cohort.csv"
    path.write_text(write_cohort_csv(generate_cohort(SimulationParams(n=200), 1).observed))
    commands = [["analyze", "--input", str(path), "--bootstrap", "100"],
                ["simulate", "--n", "200", "--reps", "2", "--bootstrap", "100"]]
    outcome = run_fresh(
        """
        import contextlib, io, json, sys
        import evtv.cli

        codes = []
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(evtv.cli.main(argv))
        print(json.dumps([codes, "numpy.ma" in sys.modules]))
        """,
        json.dumps(commands),
    )
    assert outcome == [[0, 0], False]


def test_star_import_binds_all():
    missing = run_fresh(
        """
        import json
        import evtv

        names = {}
        exec("from evtv import *", names)
        print(json.dumps([n for n in evtv.__all__ if n not in names]))
        """
    )
    assert missing == []


def test_dir_lists_all_before_first_access():
    missing = run_fresh(
        """
        import json
        import evtv

        print(json.dumps(sorted(set(evtv.__all__) - set(dir(evtv)))))
        """
    )
    assert missing == []


def test_unknown_name_raises_attribute_error():
    outcome = run_fresh(
        """
        import json
        import evtv

        try:
            evtv.no_such_name
        except AttributeError as exc:
            print(json.dumps(str(exc)))
        else:
            print(json.dumps(None))
        """
    )
    assert outcome == "module 'evtv' has no attribute 'no_such_name'"


def test_exception_classes_have_one_home():
    outcome = run_fresh(
        """
        import json, sys
        import evtv

        names = ["EstimationError", "SingularDesign", "PositivityViolation",
                 "BootstrapFailure", "WeightDiagnosticWarning"]
        top = {n: getattr(evtv, n) for n in names}
        loaded = "numpy" in sys.modules
        # submodules resolve as attributes of the bare package too
        home, estimation = evtv.errors, evtv.estimation
        print(json.dumps([loaded, [
            n for n in names if not top[n] is getattr(estimation, n) is getattr(home, n)
        ]]))
        """
    )
    assert outcome == [False, []]
