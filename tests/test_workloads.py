import pytest

from workloads import bigger, dense, large, plan


@pytest.fixture(scope="module")
def dense_plans():
    """Every instance of both dense draws with its result and the checker's
    findings on it."""
    return [(inst, *plan(inst)) for draw in (0, 1) for inst in dense(draw)]


def test_the_dense_set_plans_at_least_36_of_48_and_every_plan_passes_the_checker(dense_plans):
    assert len(dense_plans) == 48
    assert [inst.name for inst, _, _ in dense_plans[:8]] == [
        "open8x4#0", "block8x4#1", "open8x6#2", "block8x6#3",
        "open8x8#4", "block8x8#5", "open8x12#6", "block8x12#7"]
    for inst, _, errors in dense_plans:
        assert errors == [], inst.name
    assert sum(result.succeeded for _, result, _ in dense_plans) >= 36


def test_no_dense_window_takes_more_than_two_tries(dense_plans):
    # The bounded try and the first-reach try; `retries` counts the failed
    # tries before the last one, and no try widens the window.
    windows = [w for _, result, _ in dense_plans for w in result.windows]
    assert max(w.retries for w in windows) == 1
    assert not any(w.escalated for w in windows)


@pytest.mark.parametrize("instances, count", [(large, 8), (bigger, 4)])
def test_the_large_and_bigger_sets_plan_every_instance_and_pass_the_checker(instances, count):
    planned = [(inst, *plan(inst)) for inst in instances()]
    assert len(planned) == count
    for inst, result, errors in planned:
        assert result.succeeded, inst.name
        assert errors == [], inst.name
