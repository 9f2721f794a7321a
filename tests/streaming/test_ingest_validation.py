"""Ingest refuses an invalid batch before anything is written.

``IngestSession.append`` checks every record up front: a record must be
a mapping whose ``created_at`` is a ``datetime`` of the same timezone
awareness as the collection's watermark.  One bad record raises
:class:`repro.store.ValidationError` naming its batch index, the store
is left untouched, and the session keeps working.
"""

from datetime import datetime, timedelta, timezone

import pytest

from repro.store import Database, ValidationError
from repro.streaming import IngestSession

T0 = datetime(2024, 3, 1, 12, 0)


def _tweet(minutes):
    return {"text": f"tweet {minutes}", "created_at": T0 + timedelta(minutes=minutes)}


def _stored(database, name="tweets"):
    return len(database[name]) if name in database else 0


INVALID = [
    pytest.param({"text": "no timestamp"}, "got None", id="missing"),
    pytest.param(
        {"text": "x", "created_at": "2024-03-01T12:00:00"},
        "must be a datetime, got '2024-03-01T12:00:00'",
        id="string",
    ),
    pytest.param(
        {"text": "x", "created_at": 12}, "must be a datetime, got 12", id="int"
    ),
    pytest.param(["not", "a", "mapping"], "not a mapping", id="list"),
]


@pytest.mark.parametrize("bad,reason", INVALID)
def test_invalid_first_batch_writes_nothing(bad, reason):
    database = Database("validate-first")
    session = IngestSession(database)
    with pytest.raises(ValidationError) as excinfo:
        session.append("tweets", [_tweet(0), bad])
    message = str(excinfo.value)
    assert "batch index 1" in message
    assert reason in message
    assert _stored(database) == 0
    assert session.watermark("tweets") is None

    ack = session.append("tweets", [_tweet(0), _tweet(5)])
    assert ack.accepted == 2
    assert _stored(database) == 2


@pytest.mark.parametrize("bad,reason", INVALID)
def test_invalid_later_batch_writes_nothing(bad, reason):
    database = Database("validate-later")
    session = IngestSession(database)
    session.append("tweets", [_tweet(0), _tweet(10)])
    watermark = session.watermark("tweets")
    with pytest.raises(ValidationError, match=r"batch index 0"):
        session.append("tweets", [bad, _tweet(20)])
    assert _stored(database) == 2
    assert session.watermark("tweets") == watermark

    assert session.append("tweets", [_tweet(20)]).accepted == 1
    assert _stored(database) == 3


def test_timezone_aware_record_against_naive_watermark():
    database = Database("validate-tz")
    session = IngestSession(database)
    session.append("tweets", [_tweet(0)])
    aware = {"text": "x", "created_at": datetime(2024, 3, 2, tzinfo=timezone.utc)}
    with pytest.raises(ValidationError, match="timezone-aware and naive"):
        session.append("tweets", [_tweet(30), aware])
    assert _stored(database) == 1
    assert session.append("tweets", [_tweet(30)]).accepted == 1


def test_mixed_timezones_within_first_batch():
    database = Database("validate-tz-batch")
    session = IngestSession(database)
    aware = {"text": "x", "created_at": datetime(2024, 3, 2, tzinfo=timezone.utc)}
    with pytest.raises(ValidationError, match="batch index 1"):
        session.append("tweets", [_tweet(0), aware])
    assert _stored(database) == 0
