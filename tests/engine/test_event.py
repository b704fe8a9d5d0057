"""Unit tests for the event queue."""

from repro.engine.event import EventQueue


def test_events_fire_in_time_order():
    q = EventQueue()
    q.push_raw(5, print, ())
    q.push_raw(1, print, ())
    q.push_raw(3, print, ())
    times = []
    while True:
        entry = q.pop()
        if entry is None:
            break
        times.append(entry[0])
    assert times == [1, 3, 5]


def test_same_time_events_fire_fifo():
    q = EventQueue()
    q.push_raw(7, print, ("a",))
    q.push_raw(7, print, ("b",))
    assert q.pop() == (7, print, ("a",))
    assert q.pop() == (7, print, ("b",))


def test_len_tracks_heap_size():
    q = EventQueue()
    assert len(q) == 0
    q.push_raw(1, print, ("x",))
    q.push_raw(2, print, ("y",))
    assert len(q) == 2
    q.pop()
    assert len(q) == 1
