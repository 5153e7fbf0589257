"""The names perfbench's traced runs (``perfbench/launch.py``) replace by
module or class attribute. Each must be the one the program calls, once
per PUB or per tick, or a traced run would count nothing."""

from soilnet import gateway, sim, store
from soilnet.cli import main
from soilnet.protocol import Ack

PUB = b"PUB site/s/profile/p1/depth/5/moisture 1 1700000000 1.3\n"
VERDICTS = {"accept", "duplicate", "out_of_range", "malformed", "foreign_site"}


def _recording(calls, fn):
    def wrapper(*args):
        result = fn(*args)
        calls.append((args, result))
        return result
    return wrapper


def test_one_pub_classifies_and_appends_once_through_the_patched_names(tmp_path, monkeypatch):
    classified, appended = [], []
    monkeypatch.setattr(gateway, "classify_line", _recording(classified, gateway.classify_line))
    monkeypatch.setattr(store.Store, "append", _recording(appended, store.Store.append))
    gw = gateway.Gateway(("127.0.0.1", 0), store.Store(str(tmp_path / "data")), site="s")
    try:
        assert gw.handle_line(PUB) == Ack(1)
    finally:
        gw.server_close()
    [(_, (verdict, _))] = classified
    assert verdict.value in VERDICTS
    [((_, row), _)] = appended
    assert (row.profile_id, row.depth_cm, row.seq) == ("p1", 5, 1)


def test_simulate_offline_steps_once_per_tick_through_the_patched_name(tmp_path, monkeypatch):
    stepped = []
    monkeypatch.setattr(sim, "step", _recording(stepped, sim.step))
    assert main(["simulate", "--offline", "--data-root", str(tmp_path / "data"),
                 "--duration", "2h", "--start", "1700000000"]) == 0
    assert [args[3] for args, _ in stepped] == list(sim.tick_times(7200, 900))
