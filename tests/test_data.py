"""Unit tests for the synthetic dataset generators and query oracle."""

import numpy as np
import pytest

from repro.data import (
    QS0,
    QS1,
    QT,
    Dataset,
    RangeCondition,
    generate_smartcity,
    generate_taxi,
    generate_twitter,
    inflate,
    load_dataset,
)
from repro.engine import ingest_dataset
from repro.errors import QueryError, ReproError
from repro.jsonpath import loads, sensor_names


class TestDatasetContainer:
    def test_stream_framing(self):
        ds = Dataset("t", [b'{"a":1}', b'{"b":2}'])
        assert bytes(ds.stream) == b'{"a":1}\n{"b":2}\n'
        assert ds.starts.tolist() == [0, 8]

    def test_rejects_newlines_in_records(self):
        with pytest.raises(ReproError):
            Dataset("t", [b"a\nb"])

    def test_parsed_lazy(self):
        ds = Dataset("t", [b'{"a":1}'])
        assert ds.parsed[0] == {"a": 1}

    def test_subset(self):
        ds = Dataset("t", [b"{}", b'{"a":1}', b'{"b":2}'])
        sub = ds.subset([0, 2])
        assert len(sub) == 2
        assert sub.records[1] == b'{"b":2}'

    def test_inflate_reaches_target(self):
        ds = Dataset("t", [b'{"a":1}'])
        big = inflate(ds, 1000)
        assert big.total_bytes >= 1000
        assert all(record == b'{"a":1}' for record in big.records)

    def test_inflate_rejects_empty(self):
        with pytest.raises(ReproError):
            inflate(Dataset("t", []), 100)


class TestGenerators:
    @pytest.mark.parametrize(
        "generate", [generate_smartcity, generate_taxi, generate_twitter]
    )
    def test_deterministic(self, generate):
        assert generate(50, seed=3).records == generate(50, seed=3).records

    @pytest.mark.parametrize(
        "generate", [generate_smartcity, generate_taxi, generate_twitter]
    )
    def test_seed_changes_content(self, generate):
        assert generate(50, seed=3).records != generate(50, seed=4).records

    @pytest.mark.parametrize(
        "generate", [generate_smartcity, generate_taxi, generate_twitter]
    )
    def test_all_records_parse(self, generate):
        for record in generate(100, seed=1):
            loads(record)  # strict parser accepts every record

    def test_load_dataset_names(self):
        assert load_dataset("smartcity", 10).name == "smartcity"
        assert load_dataset("taxi", 10).name == "taxi"
        assert load_dataset("twitter", 10).name == "twitter"
        with pytest.raises(QueryError):
            load_dataset("imaginary")


class TestSmartCity:
    def test_senml_schema(self, smartcity_small):
        record = smartcity_small.parsed[0]
        assert "e" in record and "bt" in record
        entry = record["e"][0]
        assert set(entry) == {"v", "u", "n"}
        assert isinstance(entry["v"], str)  # values are JSON strings

    def test_partial_records_exist(self, smartcity_small):
        counts = {len(sensor_names(r)) for r in smartcity_small.parsed}
        assert 5 in counts
        assert any(count < 5 for count in counts)

    def test_light_mostly_above_1000(self, smartcity_small):
        from repro.jsonpath import measurement_value

        lights = [
            measurement_value(record, "light")
            for record in smartcity_small.parsed
        ]
        lights = [value for value in lights if value is not None]
        above = sum(1 for value in lights if value > 1000)
        assert above / len(lights) > 0.7

    def test_selectivities_near_paper(self):
        ds = load_dataset("smartcity", 4000)
        qs0 = QS0.truth_array(ds).mean()
        qs1 = QS1.truth_array(ds).mean()
        assert abs(qs0 - 0.639) < 0.08
        assert abs(qs1 - 0.054) < 0.04


class TestTaxi:
    def test_sparse_monetary_fields(self, taxi_small):
        with_tolls = sum(
            1 for r in taxi_small.parsed if "tolls_amount" in r
        )
        assert 0 < with_tolls < len(taxi_small)
        assert all("total_amount" in r for r in taxi_small.parsed)

    def test_tolls_total_letter_subset(self):
        # the Table II collision requires this letter-set property
        assert set("total_amount") <= set("tolls_amount")

    def test_correlated_fare_distance(self, taxi_small):
        fares = np.array(
            [r["fare_amount"] for r in taxi_small.parsed]
        )
        distances = np.array(
            [r["trip_distance"] for r in taxi_small.parsed]
        )
        rho = np.corrcoef(fares, distances)[0, 1]
        assert rho > 0.8

    def test_selectivity_near_paper(self):
        ds = load_dataset("taxi", 4000)
        assert abs(QT.truth_array(ds).mean() - 0.057) < 0.04

    def test_hex_ids_can_contain_exponent_patterns(self, taxi_small):
        import re

        blob = b"".join(taxi_small.records)
        assert re.search(rb"[0-9]e[0-9]", blob)


class TestTwitter:
    def test_record_mix(self, twitter_small):
        full = sum(1 for r in twitter_small.parsed if "user" in r)
        deletes = sum(1 for r in twitter_small.parsed if "delete" in r)
        minimal = len(twitter_small) - full - deletes
        assert full > minimal > 0
        assert deletes > 0

    def test_negatives_exist_for_all_needles(self, twitter_small):
        for needle in (b"created_at", b"user", b"location", b"lang",
                       b"favourites_count"):
            without = sum(
                1 for r in twitter_small.records if needle not in r
            )
            assert without > 0, needle

    def test_deletes_fool_s1_user(self, twitter_small):
        """Deletion notices must B=1-match 'user' without containing it."""
        from repro.core.string_match import record_matches

        deletes = [
            raw
            for raw, parsed in zip(
                twitter_small.records, twitter_small.parsed
            )
            if "delete" in parsed
        ]
        assert deletes
        for record in deletes:
            assert b"user" not in record
            assert record_matches(record, "user", 1)


class TestQueryOracle:
    def test_condition_kinds(self):
        assert RangeCondition("light", 0, 5153).kind == "int"
        assert RangeCondition("t", "0.7", "35.1").kind == "float"

    def test_missing_attribute_fails(self):
        record = loads('{"e":[{"v":"1","n":"light"}]}')
        assert not QS0.matches(record)

    def test_flat_accessor(self):
        record = loads(
            '{"trip_time_in_secs":600,"tip_amount":2.0,'
            '"fare_amount":10.0,"tolls_amount":5.0,"trip_distance":3.0}'
        )
        assert QT.matches(record)
        record["tolls_amount"] = 0.0
        assert not QT.matches(record)

    def test_expression_text_matches_table8(self):
        text = QS0.expression_text()
        assert '(0.7 <= "temperature" <= 35.1)' in text
        assert text.count("AND") == 4

    def test_truth_array_shape(self, smartcity_small):
        truth = QS0.truth_array(smartcity_small)
        assert truth.shape == (len(smartcity_small),)
        assert truth.dtype == bool


class TestNdjsonIO:
    """NDJSON files are read by the engine's one splitter,
    :func:`~repro.engine.ingest_dataset` (through ``RecordFramer``)."""

    def test_round_trip_via_file(self, tmp_path, smartcity_small):
        path = tmp_path / "data.ndjson"
        path.write_bytes(
            b"".join(r + b"\n" for r in smartcity_small.records[:25])
        )
        loaded = ingest_dataset(str(path))
        assert loaded.records == smartcity_small.records[:25]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_bytes(b'{"a":1}\n\n  \n{"b":2}\n')
        loaded = ingest_dataset(str(path))
        assert loaded.records == [b'{"a":1}', b'{"b":2}']

    def test_crlf_endings(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_bytes(b'{"a":1}\r\n{"b":2}\r\n')
        loaded = ingest_dataset(str(path))
        assert loaded.records == [b'{"a":1}', b'{"b":2}']

    def test_only_the_cr_before_the_newline_is_stripped(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_bytes(b'{"a":1}\r\r\n')
        loaded = ingest_dataset(str(path))
        assert loaded.records == [b'{"a":1}\r']

    def test_validation_rejects_malformed(self, tmp_path):
        """A malformed line fails loudly once the records are parsed."""
        from repro.errors import JSONParseError

        path = tmp_path / "bad.ndjson"
        path.write_bytes(b'{"a":1}\nnot json\n')
        loaded = ingest_dataset(str(path))
        with pytest.raises(JSONParseError):
            loaded.parsed  # noqa: B018 - force strict parsing

    def test_validation_can_be_skipped(self, tmp_path):
        """Ingest frames raw bytes and parses nothing, as the filter
        lanes do: validation happens only on ``parsed``."""
        path = tmp_path / "bad.ndjson"
        path.write_bytes(b'garbage bytes\n')
        loaded = ingest_dataset(str(path))
        assert loaded.records == [b"garbage bytes"]
