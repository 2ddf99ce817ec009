from stochflow.io_cli.verify import run_battery


def test_battery_passes_with_unique_names():
    results = run_battery()
    failed = [r.record() for r in results if not r.passed]
    assert not failed
    names = [r.name for r in results]
    assert len(set(names)) == len(names)
