"""Every public function of the modules the routes are built from is reached
by a route.  The routes (each CLI command, and the per-mode oracle, which no
command runs) are run under a profiler that records every Python call, on
the main thread and on the ratio map's pool threads; a public function none
of them calls is code ``src/`` no longer needs.  ``bures`` is not guarded:
its matrix fidelities and finite-difference metric are the independent
references the tests compare the oracle's closed forms against."""

import inspect
import sys
import threading

from kitaev_bures import cli, quadrature, scaling, spectrum, thermal_metric
from kitaev_bures.spectrum import Couplings
from kitaev_bures.thermal_metric import ThermoPoint, tensor_oracle

GUARDED = (thermal_metric, spectrum, quadrature, scaling)

GAPPED = ["--jx", "0.1", "--jy", "0.1", "--jz", "0.8"]
FIT = ["scaling", *GAPPED, "--tmin", "0.1", "--tmax", "0.3", "--points", "6",
       "--grid-n", "32", "--tol", "1e-3"]
ROUTES = [
    ["tensor", "--jx", "0.3333", "--jy", "0.3333", "--jz", "0.3334", "--temp", "0.05",
     "--tol", "1e-3"],
    ["tensor", *GAPPED, "--temp", "1", "--size", "5"],
    ["sweep", "--path", "start=0.2,0.2,0.6", "end=0.1,0.1,0.8", "--steps", "2",
     "--temp", "0.5", "--grid-n", "32", "--tol", "1e-3"],
    FIT + ["--model", "gapped-nc", "--element", "nc:jz-jz"],
    FIT + ["--element", "c:jz-jz"],
    FIT + ["--model", "log", "--element", "nc:jz-jz"],
    FIT + ["--model", "power", "--element", "nc:jz-jz"],
    ["ratio-map", "--jz-min", "0.62", "--jz-max", "0.7", "--t-min", "0.5", "--t-max", "1.0",
     "--res", "8x8", "--grid-n", "32", "--tol", "1e-3", "--threads", "2", "--contour", "1.0"],
    ["phase", *GAPPED],
]


def test_every_public_function_is_reached_by_a_route(tmp_path, capsys):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile(), threading.getprofile()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv + ["--out", str(tmp_path / f"route{k}")])
                 for k, argv in enumerate(ROUTES)]
        tensor_oracle(ThermoPoint(Couplings(0.3, 0.3, 0.4), 2.0), 5)
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
    assert codes == [0] * len(ROUTES), capsys.readouterr().err
    public = {
        f"{module.__name__}.{name}": inspect.unwrap(getattr(module, name)).__code__
        for module in GUARDED
        for name in module.__all__
        if inspect.isfunction(getattr(module, name))
    }
    assert sorted(name for name, code in public.items() if code not in called) == []
