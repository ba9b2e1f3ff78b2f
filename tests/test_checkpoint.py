import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dybm import checkpoint
from dybm.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from dybm.config import ConfigError, ModelConfig, Parameters
from dybm.model import advance, fire_probs, init_state

from conftest import configs_with_params, histories


# signed zero, subnormals and integer-valued floats: the spellings a
# fixed-precision writer gets wrong or makes ambiguous with JSON integers
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -2.2250738585072014e-309, 1.0, -7.0, 2.0**60]


def roundtrip(params, config, state=None):
    return load_checkpoint(save_checkpoint(params, config, state))


class TestRoundtrip:
    @given(
        configs_with_params(max_units=3, max_delay=5, scale=2.0),
        st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(SPECIAL_FLOATS)), max_size=6),
    )
    @settings(max_examples=30)
    def test_bit_identical_parameters(self, cfg_params, specials):
        cfg, params = cfg_params
        for k, x in specials:
            params.theta[k % params.theta.size] = x
        loaded_params, loaded_cfg, loaded_state = roundtrip(params, cfg)
        assert loaded_state is None
        assert loaded_cfg.n_units == cfg.n_units
        assert loaded_cfg.lambdas == cfg.lambdas
        assert loaded_cfg.mus == cfg.mus
        assert loaded_cfg.delays == cfg.delays
        assert loaded_cfg.temperature == cfg.temperature
        assert loaded_params.bias.tobytes() == params.bias.tobytes()
        assert loaded_params.u.tobytes() == params.u.tobytes()
        assert loaded_params.v.tobytes() == params.v.tobytes()

    def test_state_roundtrip_bit_identical(self, rng):
        cfg = ModelConfig.dense(3, lambdas=(0.5, 0.77), mus=(0.25,), delay=4)
        params = Parameters(
            bias=rng.normal(size=3),
            u=rng.normal(size=(9, 2)),
            v=rng.normal(size=(9, 1)),
        )
        state = init_state(cfg)
        for x in (rng.random((13, 3)) < 0.5).astype(int):
            state = advance(state, cfg, x)
        _, _, loaded_state = roundtrip(params, cfg, state)
        assert loaded_state.alpha.tobytes() == state.alpha.tobytes()
        assert loaded_state.gamma.tobytes() == state.gamma.tobytes()
        assert loaded_state.queue.tobytes() == state.queue.tobytes()
        assert loaded_state.step_count == state.step_count

    def test_fire_probs_survive_roundtrip(self, rng):
        # same predictions on many random states after reload
        cfg = ModelConfig.dense(2, delay=3)
        params = Parameters(
            bias=rng.normal(size=2), u=rng.normal(size=(4, 1)), v=rng.normal(size=(4, 1))
        )
        loaded_params, loaded_cfg, _ = roundtrip(params, cfg)
        state = init_state(cfg)
        loaded_state = init_state(loaded_cfg)
        for _ in range(100):
            x = (rng.random(2) < 0.5).astype(int)
            np.testing.assert_array_equal(
                fire_probs(params, state, cfg), fire_probs(loaded_params, loaded_state, loaded_cfg)
            )
            state = advance(state, cfg, x)
            loaded_state = advance(loaded_state, loaded_cfg, x)

    def test_serialised_text_is_deterministic(self, rng):
        cfg = ModelConfig.dense(2)
        params = Parameters(
            bias=rng.normal(size=2), u=rng.normal(size=(4, 1)), v=rng.normal(size=(4, 1))
        )
        assert save_checkpoint(params, cfg) == save_checkpoint(params, cfg)

    def test_shortest_round_trip_floats(self):
        # each float is spelled as Python's repr: the shortest decimal that
        # reads back to the same double, with a sign on zero and a ".0" on
        # integer values
        cfg = ModelConfig(4, (0.5,), (0.25,), {(0, 0): 2})
        bias = np.array([1.0 / 3.0, 1.0, -0.0, 5e-324])
        params = Parameters(bias, np.zeros((1, 1)), np.zeros((1, 1)))
        text = save_checkpoint(params, cfg)
        assert '"bias":[0.3333333333333333,1.0,-0.0,5e-324]' in text
        loaded, _, _ = load_checkpoint(text)
        assert loaded.bias.tobytes() == bias.tobytes()
        assert save_checkpoint(loaded, cfg) == text


def _reversed_rows(doc):
    """The document with every pair table's rows in reverse order."""
    doc["config"]["connectivity"].reverse()
    tables = [doc["u"], doc["v"]]
    if "trace_state" in doc:
        tables += [doc["trace_state"]["alpha"], doc["trace_state"]["queues"]]
    for rows in tables:
        rows.reverse()
    return doc


def _integral_as_ints(doc):
    """The document with every integral float but -0.0 written as a JSON int."""
    if isinstance(doc, dict):
        return {k: _integral_as_ints(x) for k, x in doc.items()}
    if isinstance(doc, list):
        return [_integral_as_ints(x) for x in doc]
    if isinstance(doc, float) and doc.is_integer() and str(doc) != "-0.0":
        return int(doc)
    return doc


EDITS = {
    "as-saved": lambda doc: doc,
    "rows-reversed": _reversed_rows,
    "integral-as-ints": _integral_as_ints,
    "both": lambda doc: _integral_as_ints(_reversed_rows(doc)),
}


class TestVectorPass:
    """The vector pass and the per-item reader load the same model."""

    @given(
        configs_with_params(max_units=4, max_delay=4, allow_empty=True),
        st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(SPECIAL_FLOATS)), max_size=6),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40)
    def test_edited_documents_load_the_same_model(self, cfg_params, specials, with_state, seed):
        cfg, params = cfg_params
        rng = np.random.default_rng(seed)
        for k, x in specials:
            params.theta[k % params.theta.size] = x
        state = None
        if with_state:
            state = init_state(cfg)
            for x in (rng.random((rng.integers(0, 6), cfg.n_units)) < 0.5).astype(int):
                state = advance(state, cfg, x)
            state.gamma[0, 0] = -0.0
            state.gamma[-1, -1] = 2.0
        text = save_checkpoint(params, cfg, state)
        for name, edit in EDITS.items():
            loaded, loaded_cfg, loaded_state = load_checkpoint(json.dumps(edit(json.loads(text))))
            assert loaded.theta.tobytes() == params.theta.tobytes(), name
            assert loaded_cfg.delays == cfg.delays, name
            if state is None:
                assert loaded_state is None, name
            else:
                for trace in ("alpha", "gamma", "queue"):
                    got, want = getattr(loaded_state, trace), getattr(state, trace)
                    assert got.dtype == want.dtype and got.shape == want.shape, (name, trace)
                    assert got.tobytes() == want.tobytes(), (name, trace)
                assert loaded_state.step_count == state.step_count, name
            assert save_checkpoint(loaded, loaded_cfg, loaded_state) == text, name

    def test_each_one_item_edit_loads_as_the_per_item_reader_loads_it(self, monkeypatch):
        def nodes(x, path=()):
            """The path of every value inside ``x``, at any depth."""
            items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
            for k, item in items:
                yield path + (k,)
                yield from nodes(item, path + (k,))

        def outcome(text):
            try:
                params, cfg, state = load_checkpoint(text)
            except (CheckpointError, ConfigError) as exc:
                return type(exc).__name__, str(exc)
            traces = () if state is None else (state.alpha, state.gamma, state.queue)
            arrays = (params.theta, *traces)
            return [a.tobytes() for a in arrays], save_checkpoint(params, cfg, state)

        cfg = ModelConfig(2, (0.5,), (0.25,), {(0, 0): 1, (0, 1): 3, (1, 0): 2})
        params = Parameters(np.array([0.5, -0.0]), np.full((3, 1), 0.25), np.full((3, 1), -1.5))
        state = init_state(cfg)
        for x in ([1, 0], [1, 1]):
            state = advance(state, cfg, np.array(x))
        doc = json.loads(save_checkpoint(params, cfg, state))
        edits = []
        for path in nodes(doc):
            for value in (0, 1, 2, True, -0.0, 0.75, 10**400, "01", None, [], [0.5]):
                edited = json.loads(json.dumps(doc))
                parent = edited
                for k in path[:-1]:
                    parent = parent[k]
                parent[path[-1]] = value
                edits.append(json.dumps(edited))
        vector = [outcome(text) for text in edits]
        monkeypatch.setattr(checkpoint, "_heads", lambda rows: None)
        monkeypatch.setattr(checkpoint, "_float_table", lambda rows, width: None)
        assert vector == [outcome(text) for text in edits]

    def test_saved_document_takes_no_per_item_call(self, monkeypatch, rng):
        # the online_wide shape: 256 units, fan-in 8, delays 1-4
        delays = {((j - r) % 256, j): 1 + (r - 1) % 4 for j in range(256) for r in range(1, 9)}
        cfg = ModelConfig(256, (0.5, 0.8), (0.5, 0.8), delays)
        params = Parameters(
            bias=rng.normal(size=256), u=rng.normal(size=(2048, 2)), v=rng.normal(size=(2048, 2))
        )
        state = init_state(cfg)
        for x in (rng.random((5, 256)) < 0.3).astype(int):
            state = advance(state, cfg, x)
        text = save_checkpoint(params, cfg, state)

        def per_item(*args):
            raise AssertionError("per-item reader called")

        monkeypatch.setattr(checkpoint, "_number", per_item)
        monkeypatch.setattr(checkpoint, "_rows", per_item)
        loaded, loaded_cfg, loaded_state = load_checkpoint(text)
        assert loaded.theta.tobytes() == params.theta.tobytes()
        assert loaded_state.queue.tobytes() == state.queue.tobytes()
        assert save_checkpoint(loaded, loaded_cfg, loaded_state) == text


class TestQueuePrefix:
    """Every pair from one unit queues a prefix of that unit's history, and
    the near-window trace relies on it: save and load both refuse a state
    whose queues disagree, and every walked state round-trips."""

    # one source unit, two pairs: (0, 0) queues 2 bits, (0, 1) queues 3
    CFG = ModelConfig(2, (0.5,), (0.25, 0.6), {(0, 0): 3, (0, 1): 4})

    def walked(self, length):
        state = init_state(self.CFG)
        for x in (np.random.default_rng(23).random((length, 2)) < 0.5).astype(int):
            advance(state, self.CFG, x, state)
        return state

    @pytest.mark.parametrize("length", [0, 1, 2, 3, 5, 11])
    def test_walked_states_round_trip(self, length):
        state = self.walked(length)
        _, _, loaded = roundtrip(Parameters.zeros(self.CFG), self.CFG, state)
        assert loaded.queue.tobytes() == state.queue.tobytes()
        assert loaded.step_count == state.step_count

    @pytest.mark.parametrize("position", [0, 1], ids=["newest", "oldest"])
    def test_save_refuses_disagreeing_bits(self, position):
        state = self.walked(6)
        state.queue[position] ^= 1  # a bit of pair (0, 0), the shorter queue
        with pytest.raises(CheckpointError, match=r"^trace_state\.queues: pair \(0, 0\) disagrees"):
            save_checkpoint(Parameters.zeros(self.CFG), self.CFG, state)

    @pytest.mark.parametrize("row, bits", [(0, [1, 0]), (1, [0, 1, 1])], ids=["(0, 0)", "(0, 1)"])
    def test_load_refuses_disagreeing_bits(self, row, bits):
        doc = json.loads(save_checkpoint(Parameters.zeros(self.CFG), self.CFG, init_state(self.CFG)))
        doc["trace_state"]["queues"][row][2] = bits
        with pytest.raises(CheckpointError, match=r"^trace_state\.queues: pair \(0, 0\) disagrees"):
            load_checkpoint(json.dumps(doc))

    def test_load_refuses_disagreeing_rows_out_of_order(self):
        # rows out of pair order go through the per-row reader and pack_queue_rows
        doc = json.loads(save_checkpoint(Parameters.zeros(self.CFG), self.CFG, init_state(self.CFG)))
        doc["trace_state"]["queues"][1][2] = [0, 1, 1]
        doc["trace_state"]["queues"].reverse()
        with pytest.raises(CheckpointError, match=r"^trace_state\.queues: pair \(0, 0\) disagrees"):
            load_checkpoint(json.dumps(doc))


class TestMalformedDocuments:
    def test_truncated_document(self, rng):
        cfg = ModelConfig.dense(2)
        text = save_checkpoint(Parameters.zeros(cfg), cfg)
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(text[: len(text) // 2])

    def test_version_mismatch(self):
        cfg = ModelConfig.dense(1)
        doc = json.loads(save_checkpoint(Parameters.zeros(cfg), cfg))
        doc["format_version"] = 99
        with pytest.raises(CheckpointError, match="format_version"):
            load_checkpoint(json.dumps(doc))

    def test_config_invariant_violation(self):
        cfg = ModelConfig.dense(1)
        doc = json.loads(save_checkpoint(Parameters.zeros(cfg), cfg))
        doc["config"]["mus"] = [1.0]
        with pytest.raises(ConfigError, match="mus"):
            load_checkpoint(json.dumps(doc))

    def test_missing_field(self):
        cfg = ModelConfig.dense(1)
        doc = json.loads(save_checkpoint(Parameters.zeros(cfg), cfg))
        del doc["bias"]
        with pytest.raises(CheckpointError, match="bias"):
            load_checkpoint(json.dumps(doc))

    def test_pair_set_must_match_connectivity(self):
        cfg = ModelConfig.dense(2)
        doc = json.loads(save_checkpoint(Parameters.zeros(cfg), cfg))
        doc["u"] = doc["u"][:-1]
        with pytest.raises(CheckpointError, match="pairs"):
            load_checkpoint(json.dumps(doc))

    @pytest.mark.parametrize("table", ["u", "v", "trace_state.alpha", "trace_state.queues"])
    def test_duplicate_pair_rejected(self, table):
        # every [i, j, values] table goes through the one row reader
        cfg = ModelConfig.dense(2, delay=3)
        doc = json.loads(save_checkpoint(Parameters.zeros(cfg), cfg, init_state(cfg)))
        rows = doc["trace_state"] if "." in table else doc
        rows = rows[table.split(".")[-1]]
        rows[1] = rows[0]
        with pytest.raises(CheckpointError, match=f"{table}\\[1\\]: duplicate"):
            load_checkpoint(json.dumps(doc))

    def test_wrong_queue_length(self, rng):
        cfg = ModelConfig.dense(2, delay=3)
        state = init_state(cfg)
        doc = json.loads(save_checkpoint(Parameters.zeros(cfg), cfg, state))
        doc["trace_state"]["queues"][0][2] = [0]
        with pytest.raises(CheckpointError, match="bits"):
            load_checkpoint(json.dumps(doc))

    def test_negative_trace_rejected(self):
        cfg = ModelConfig.dense(1)
        state = init_state(cfg)
        doc = json.loads(save_checkpoint(Parameters.zeros(cfg), cfg, state))
        doc["trace_state"]["alpha"][0][2] = [-0.5]
        with pytest.raises(CheckpointError, match="non-negative"):
            load_checkpoint(json.dumps(doc))

    @pytest.mark.parametrize("trace", ["alpha", "gamma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_trace_rejected(self, trace, value):
        # NaN passes a plain "x < 0" test; the loaded model would fire with
        # NaN probabilities and could not be saved again
        cfg = ModelConfig.dense(2, delay=3)
        doc = json.loads(save_checkpoint(Parameters.zeros(cfg), cfg, init_state(cfg)))
        row = doc["trace_state"][trace][1]
        (row[2] if trace == "alpha" else row)[0] = value
        with pytest.raises(CheckpointError, match="finite and non-negative"):
            load_checkpoint(json.dumps(doc))

    @pytest.mark.parametrize("trace", ["alpha", "gamma", "queue"])
    def test_state_of_another_config_not_saved(self, trace):
        # the file would name this config's pairs but hold another's traces,
        # and the reader would reject it
        cfg = ModelConfig.dense(2, delay=3)
        other = init_state(ModelConfig.dense(2, lambdas=(0.5, 0.2), mus=(0.25, 0.1), delay=4))
        state = init_state(cfg)
        setattr(state, trace, getattr(other, trace))
        with pytest.raises(CheckpointError, match=rf"trace_state\.{trace} has shape"):
            save_checkpoint(Parameters.zeros(cfg), cfg, state)

    def test_unknown_config_key_rejected(self):
        cfg = ModelConfig.dense(1)
        doc = json.loads(save_checkpoint(Parameters.zeros(cfg), cfg))
        doc["config"]["temprature"] = 2.0
        with pytest.raises(CheckpointError, match="unknown field 'temprature'"):
            load_checkpoint(json.dumps(doc))

    @pytest.mark.parametrize(
        "section, key, misspelt",
        [(None, "trace_state", "trace_stat"), ("trace_state", "step_count", "step_cout")],
        ids=["top-level", "trace-state"],
    )
    def test_unknown_key_rejected(self, section, key, misspelt):
        # a misspelt trace_state would otherwise load as no state at all
        cfg = ModelConfig.dense(2, delay=3)
        doc = json.loads(save_checkpoint(Parameters.zeros(cfg), cfg, init_state(cfg)))
        where = doc if section is None else doc[section]
        where[misspelt] = where.pop(key)
        with pytest.raises(CheckpointError, match=f"unknown field '{misspelt}'"):
            load_checkpoint(json.dumps(doc))

    def test_deep_nesting_is_malformed(self):
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint("[" * 200_000)

    def test_integer_beyond_double_range_rejected(self):
        cfg = ModelConfig.dense(1)
        doc = json.loads(save_checkpoint(Parameters.zeros(cfg), cfg))
        doc["bias"] = [10**400]
        with pytest.raises(CheckpointError, match=r"bias\[0\]: number too large"):
            load_checkpoint(json.dumps(doc))

    @pytest.mark.parametrize("trace", ["alpha", "gamma"])
    def test_non_finite_trace_not_saved(self, trace):
        cfg = ModelConfig.dense(2, delay=3)
        state = init_state(cfg)
        getattr(state, trace)[1, 0] = np.nan
        with pytest.raises(CheckpointError, match="non-finite"):
            save_checkpoint(Parameters.zeros(cfg), cfg, state)

    @pytest.mark.parametrize(
        "field, corrupt",
        [
            ("alpha", lambda a: -a),
            ("alpha", lambda a: a.astype(np.float32)),
            ("alpha", lambda a: a.astype(np.longdouble)),
            ("alpha", lambda a: a > 0),
            ("gamma", lambda g: g.astype(int)),
            ("gamma", lambda g: np.where(g > 0, np.inf, g)),
            ("queue", lambda q: q.astype(float)),
            ("queue", lambda q: q.astype(bool)),
            ("queue", lambda q: q.astype(np.int64)),
            ("queue", lambda q: q * 2),
            ("queue", lambda q: q.astype(np.int8) - 1),
            ("step_count", lambda n: -1),
            ("step_count", lambda n: 2.5),
            ("step_count", lambda n: True),
            ("step_count", lambda n: np.int64(n)),
        ],
        ids=[
            "negative-alpha", "float32-alpha", "longdouble-alpha", "bool-alpha", "int-gamma",
            "inf-gamma", "float-queue", "bool-queue", "int64-queue", "queue-bit-2",
            "queue-bit-minus-1", "negative-step", "fractional-step", "bool-step", "numpy-step",
        ],
    )
    def test_saved_state_loads_back_or_is_refused(self, field, corrupt):
        # the writer refuses what the reader refuses, so whatever it writes
        # loads back with the values it was given
        cfg = ModelConfig.dense(2, delay=3)
        state = init_state(cfg)
        for x in ([1, 0], [1, 1], [0, 1]):
            state = advance(state, cfg, x)
        setattr(state, field, corrupt(getattr(state, field)))
        try:
            document = save_checkpoint(Parameters.zeros(cfg), cfg, state)
        except CheckpointError:
            return
        _, _, loaded = load_checkpoint(document)
        for name in ("alpha", "gamma", "queue"):
            assert np.array_equal(getattr(loaded, name), getattr(state, name)), name
        assert loaded.step_count == state.step_count

    def test_non_finite_parameter_rejected(self):
        cfg = ModelConfig.dense(1)
        doc = json.loads(save_checkpoint(Parameters.zeros(cfg), cfg))
        doc["bias"] = ["oops"]
        with pytest.raises(CheckpointError):
            load_checkpoint(json.dumps(doc))
