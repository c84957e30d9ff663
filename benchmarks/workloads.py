"""The workloads: inputs from the seed, the operations of one pass, and the
checks on their outputs.

A workload's ``ops`` is a fixed list; one pass runs each entry once, and
each entry returns (operations attempted, operations failed). Outputs are
kept per entry and checked after the timed phase, against ``reference``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import reference as ref

SATURATING_GRID_HR = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 12.0, 24.0, 48.0)
CLOSED_FORM_TOL_PP = 1e-3


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


class Workload:
    def __init__(self, seed, workdir: Path, smoke: bool, tracer):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.tracer = tracer
        self.extra: dict = {}

    def span(self, name, label=None):
        return self.tracer.span(name, label) if self.tracer else nullcontext()

    def begin_pass(self, index):
        pass

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ForwardSweep(Workload):
    """Part of forward_inverse: simulate on log-normal powders: 3 sizes x 3 conditions, plus spheres
    in a stagnant sink, where the model has a closed form."""

    def setup(self):
        from formukit import HYDROCHLOROTHIAZIDE, DissolutionConditions, ParticleMorphology
        from formukit import dissolution

        self.dissolution = dissolution
        drug = HYDROCHLOROTHIAZIDE
        rng = np.random.default_rng([self.seed, 1])
        conditions = {
            "sink": DissolutionConditions(sink_override=True),
            "coupled": DissolutionConditions(dose_mg=10.0),
            "saturating": DissolutionConditions(dose_mg=600.0),
        }
        self.items = []        # (kind, psd parameters, drug, morph, psd, conditions, grid)
        self.pairs = []        # (coarse index, fine index): same shape, sizes scaled down
        for bins in ((1, 6, 12) if self.smoke else (1, 50, 200)):
            for kind, cond in conditions.items():
                # Narrow ranges: the solver's step count follows size and
                # spread, and a pass must cost about the same on every seed.
                d50, sigma = _log_uniform(rng, 80.0, 160.0), float(rng.uniform(1.4, 1.6))
                morph = ParticleMorphology(aspect_ratio=float(rng.uniform(1.0, 1.3)))
                scale = float(rng.uniform(0.6, 0.7))
                grid = SATURATING_GRID_HR if kind == "saturating" else ref.GRID_HR
                for d in (d50, d50 * scale):
                    psd = dissolution.psd_from_lognormal(d, sigma, bins)
                    self.items.append((kind, (d, sigma, bins), drug, morph, psd, cond, grid))
                self.pairs.append((len(self.items) - 2, len(self.items) - 1))
        stagnant = DissolutionConditions(paddle_rpm=0.0, sink_override=True)
        for bins in ((1, 6) if self.smoke else (1, 50)):
            for _ in range(2):
                d50, sigma = _log_uniform(rng, 30.0, 250.0), float(rng.uniform(1.3, 1.8))
                psd = dissolution.psd_from_lognormal(d50, sigma, bins)
                self.items.append(("closed", (d50, sigma, bins), drug, ParticleMorphology(),
                                   psd, stagnant, ref.GRID_HR))
        self.first = [None] * len(self.items)
        self.last = [None] * len(self.items)
        self.ops = [(f"simulate-{i}", self._op(i)) for i in range(len(self.items))]

    def _op(self, i):
        _, _, drug, morph, psd, cond, grid = self.items[i]

        def run():
            result = self.dissolution.simulate(drug, morph, psd, cond, grid)
            profile = (result.profile.times_hr.copy(), result.profile.released_pct.copy())
            if self.first[i] is None:
                self.first[i] = profile
            self.last[i] = profile
            return 1, 0
        return run

    def check(self):
        problems = []
        worst = 0.0
        for i, (kind, (d50, sigma, bins), drug, morph, psd, cond, grid) in enumerate(self.items):
            times, released = self.last[i]
            if not (np.array_equal(released, self.first[i][1]) and np.allclose(times, grid)):
                problems.append(f"simulate #{i}: output changed between passes or grid lost")
            if kind == "closed":
                sizes, fractions = ref.lognormal_bins(d50, sigma, bins)
                exact = ref.closed_form_release(sizes, fractions, times, drug.c_sat_mg_ml,
                                                drug.diffusivity_m2_s, drug.true_density_g_ml)
                err = float(np.max(np.abs(released - exact)))
                worst = max(worst, err)
                if err > CLOSED_FORM_TOL_PP:
                    problems.append(f"closed form #{i}: off by {err:.3g} pp")
                continue
            cap = 100.0 if cond.sink_override else \
                100.0 * min(1.0, drug.c_sat_mg_ml * cond.medium_volume_ml / cond.dose_mg)
            problems += [f"simulate #{i} ({kind}, {bins} bins): {p}" for p in
                         ref.profile_properties(times, released, cap, kind == "saturating")]
        for coarse, fine in self.pairs:
            if np.any(self.last[fine][1] < self.last[coarse][1] - 1e-6):
                problems.append(f"simulate #{fine}: finer powder releases less than #{coarse}")
        self.extra["closed_form_err_pp"] = worst
        return problems


class InverseDesign(Workload):
    """Part of forward_inverse: design_psd on targets simulated from known
    powders, a log-normal design (default four starts) and a 12-bin free-bin
    design (one start) per pass."""

    LOGNORMAL_BINS = 12
    LOGNORMAL_MAX_MSE = 1e-3        # %^2
    LOGNORMAL_D50_TOL = 0.01        # relative
    FREE_BINS_MAX_ITER = 6
    # Six projected-descent steps leave 0.2-13 %^2 of misfit, depending on
    # the target; a run that does not halve the starting misfit has stalled.
    FREE_BINS_MAX_SHARE = 0.5

    def setup(self):
        import formukit as fk
        from formukit import inverse

        self.inverse = inverse
        rng = np.random.default_rng([self.seed, 2])
        drug = fk.HYDROCHLOROTHIAZIDE
        bins = 4 if self.smoke else self.LOGNORMAL_BINS
        self.specs = []        # (kind, spec, true d50, design seed)
        for kind in ("lognormal", "free_bins"):
            d50, sigma = _log_uniform(rng, 180.0, 320.0), float(rng.uniform(1.4, 1.6))
            target = fk.simulate_dissolution(drug, fk.ParticleMorphology(),
                                             fk.psd_from_lognormal(d50, sigma, bins),
                                             fk.DissolutionConditions())
            if kind == "lognormal":
                start = d50 * (1.5 if rng.uniform() < 0.5 else 1 / 1.5)
                param = fk.LognormalParameterization(start, 1.5, n_bins=bins)
            else:
                param = fk.FreeBinsParameterization.geometric(6 if self.smoke else 12, 40.0, 1500.0)
            spec = fk.DesignSpec(target=target, drug=drug, parameterization=param)
            self.specs.append((kind, spec, d50, int(rng.integers(1 << 31))))
        self.first = [None] * len(self.specs)
        self.last = [None] * len(self.specs)
        self.ops = [(f"design-{kind}", self._op(i)) for i, (kind, *_) in enumerate(self.specs)]

    def _op(self, i):
        kind, spec, _, design_seed = self.specs[i]
        max_iter = 2 if self.smoke else self.FREE_BINS_MAX_ITER
        n_starts = 4 if kind == "lognormal" else 1

        def run():
            result = self.inverse.design_psd(spec, seed=design_seed, max_iter_free=max_iter,
                                             n_starts=n_starts)
            if self.first[i] is None:
                self.first[i] = result
            self.last[i] = result
            return 1, 0
        return run

    def check(self):
        problems = []
        for i, (kind, spec, true_d50, _) in enumerate(self.specs):
            result = self.last[i]
            history = np.array(result.objective_history)
            if np.any(np.diff(history) > 0):
                problems.append(f"{kind}: objective_history increases")
            target = spec.target.released_pct
            if not np.array_equal(result.achieved.times_hr, spec.target.times_hr):
                problems.append(f"{kind}: achieved profile is not on the target grid")
                continue
            mse = float(np.mean((target - result.achieved.released_pct) ** 2))
            if not ref.close(mse, result.residual_mse):
                problems.append(f"{kind}: residual_mse {result.residual_mse!r} != {mse!r}")
            if result.residual_mse != self.first[i].residual_mse:
                problems.append(f"{kind}: design changed between passes")
            if kind == "lognormal":
                if mse > self.LOGNORMAL_MAX_MSE:
                    problems.append(f"lognormal: residual {mse:.3g} above {self.LOGNORMAL_MAX_MSE}")
                d50 = result.parameters["d50_um"]
                if abs(d50 / true_d50 - 1.0) > self.LOGNORMAL_D50_TOL:
                    problems.append(f"lognormal: d50 {d50:.4g} vs true {true_d50:.4g}")
            else:
                fractions = np.asarray(result.parameters["fractions"])
                if mse > self.FREE_BINS_MAX_SHARE * history[0]:
                    problems.append(f"free_bins: residual {mse:.3g} is not below "
                                    f"{self.FREE_BINS_MAX_SHARE} x the start's {history[0]:.3g}")
                if np.any(fractions < 0) or abs(fractions.sum() - 1.0) > 1e-9:
                    problems.append("free_bins: fractions are negative or do not sum to 1")
        return problems


STRATEGIES = ("ZS", "ZS_CoT", "FS", "FS_CoT", "RAG")
COT_LINE = "Do the step-by-step analysis"
TRANSPORT_LATENCY_S = 0.1
RAG_K = 3
FS_EXAMPLES = 3


def synthetic_records(rng, n, d50_range=(20.0, 300.0)):
    """Feature matrix (FEATURES order) and closed-form release on GRID_HR."""
    d50 = np.exp(rng.uniform(*np.log(d50_range), n))
    density = rng.uniform(1.2, 1.8, n)
    solubility = np.exp(rng.uniform(np.log(0.1), np.log(2.0), n))
    diffusivity = rng.uniform(4e-10, 1.2e-9, n)
    matrix = np.column_stack([
        d50,
        rng.uniform(1.0, 2.0, n),                                 # aspect ratio
        rng.uniform(0.5, 1.0, n),                                 # roundness
        solubility, diffusivity, density,
        6.0 / (density * d50) * rng.uniform(0.8, 1.25, n),        # SSA [m^2/g]
        d50 * rng.uniform(0.03, 0.1, n),                          # vol-eq size [um]
    ])
    sizes, fractions = ref.lognormal_bins(d50, rng.uniform(1.2, 1.8, n), 8)
    release = ref.closed_form_release(sizes, fractions, ref.GRID_HR, solubility,
                                      diffusivity, density)
    return matrix, np.clip(release, 0.0, 100.0)


def response_text(strategy, values):
    """A model answer: prose, then the table in a code fence."""
    minutes = strategy == "FS_CoT"
    times = ref.GRID_HR * (60.0 if minutes else 1.0)
    rows = ",\n".join(f"    [{t:g}, {float(v)!r}]" for t, v in zip(times, values))
    unit = "min" if minutes else "hr"
    steps = ("Step 1: the film-diffusion rate scales with solubility over particle size.\n"
             "Step 2: finer particles dissolve first, so release is front-loaded.\n"
             if strategy.endswith("CoT") else "")
    return (f"{steps}Based on the particle properties, the predicted release is:\n\n"
            f"```json\n{{\n  \"columns\": [\"Time ({unit})\", \"Drug Released (%)\"],\n"
            f"  \"data\": [\n{rows}\n  ]\n}}\n```\n"
            f"Release reaches about {values[-1]:.0f}% at 6 hr.")


class StrategyBench(Workload):
    """run_benchmark for all five strategies through LLMClient and LiveBackend,
    with a fake transport in this process and a file-backed 10k-record store."""

    def setup(self):
        import formukit as fk

        self.fk = fk
        from formukit import evaluate

        self.evaluate = evaluate
        rng = np.random.default_rng([self.seed, 3])
        n_store, n_data = (300, 3) if self.smoke else (10_000, 6)
        store_m, store_r = synthetic_records(rng, n_store)
        data_m, data_r = synthetic_records(rng, n_data, (30.0, 200.0))
        self.ids = [f"syn-{i:05d}" for i in range(n_store)] + [f"ds-{i}" for i in range(n_data)]
        self.matrix = np.vstack([store_m, data_m])
        self.release = np.vstack([store_r, data_r])

        records = [self._record(i) for i in range(len(self.ids))]
        path = self.workdir / "store.jsonl"
        with self.span("store.ingest_all"):
            writer = fk.RecordStore(path)
            for record in records:
                writer.ingest(record)
        with self.span("store.load"):
            self.store = fk.RecordStore(path)
        self.dataset = records[n_store:]
        self.by_d50 = {rec.features.d50_um: rec.id for rec in self.dataset}
        dataset_sorted = sorted(self.dataset, key=lambda r: r.id)
        self.fs_d50 = {rec.id: [r.features.d50_um for r in dataset_sorted if r.id != rec.id]
                       [:FS_EXAMPLES] for rec in self.dataset}

        # Served answers: each strategy's own bias plus per-point noise.
        self.served = {}
        for s, bias in zip(STRATEGIES, rng.uniform(-0.25, 0.25, len(STRATEGIES))):
            for rec in self.dataset:
                noise = rng.normal(0.0, 2.0, ref.GRID_HR.size)
                values = rec.profile.released_pct * (1.0 + bias) + noise
                values = np.round(np.clip(values, 0.0, 100.0), 3)
                values[0] = 0.0
                self.served[(s, rec.id)] = values
        self.texts = {key: response_text(key[0], v) for key, v in self.served.items()}

        os.environ["FORMUKIT_BENCH_API_KEY"] = "offline"
        self.config = fk.LLMConfig(base_url="http://fake.invalid/v1/chat/completions",
                                   api_key_env="FORMUKIT_BENCH_API_KEY", max_retries=0)
        self.calls = {}
        self.rag_examples = {}
        self.transcripts = []
        self.ops = [("run_benchmark", self._op)]

    def _record(self, i):
        fk = self.fk
        features = fk.FormulationInput(**dict(zip(ref.FEATURES, map(float, self.matrix[i]))))
        profile = fk.DissolutionProfile(ref.GRID_HR, self.release[i])
        return fk.FormulationRecord(self.ids[i], features, profile, provenance="simulated")

    def warm_up(self):
        client = self._client()
        self.evaluate.run_benchmark(self.dataset[:1], ("RAG",), client=client, store=self.store)

    def _client(self):
        fk = self.fk
        backend = fk.LiveBackend(self.config, transport=self._transport)
        return fk.LLMClient(config=self.config, backend=backend, recorder=fk.TranscriptRecorder())

    def _classify(self, prompt):
        query = ref.section(prompt, "Input Format", "Outout Format")
        record_id = self.by_d50[ref.d50_values(query)[0]]
        examples = ref.section(prompt, "Examples", "Constrains")
        if examples == "no examples provided":
            return ("ZS_CoT" if prompt.endswith(COT_LINE) else "ZS"), record_id, []
        shown = ref.d50_values(examples)
        if shown == self.fs_d50[record_id]:
            return ("FS_CoT" if prompt.endswith(COT_LINE) else "FS"), record_id, shown
        return "RAG", record_id, shown

    def _transport(self, url, headers, payload, timeout):
        with self.span("llm.transport"):
            prompt = payload["messages"][0]["content"]
            strategy, record_id, shown = self._classify(prompt)
            key = (strategy, record_id)
            self.calls[key] = self.calls.get(key, 0) + 1
            if strategy == "RAG":
                self.rag_examples[record_id] = shown
            text = self.texts[key]
            body = {"choices": [{"message": {"role": "assistant", "content": text}}],
                    "usage": {"prompt_tokens": len(prompt) // 4,
                              "completion_tokens": len(text) // 4}}
            time.sleep(TRANSPORT_LATENCY_S)
            return 200, json.dumps(body)

    def begin_pass(self, index):
        self.calls = {}

    def _op(self):
        client = self._client()
        self.result = self.evaluate.run_benchmark(self.dataset, client=client, store=self.store)
        self.transcripts.append(len(client.recorder.records))
        self.last_calls = dict(self.calls)
        return len(STRATEGIES) * len(self.dataset), 0

    def check(self):
        problems = []
        n = len(self.dataset)
        expected = len(STRATEGIES) * n
        if any(count != expected for count in self.transcripts):
            problems.append(f"transcript counts {sorted(set(self.transcripts))} != {expected}")
        if sorted(self.last_calls) != sorted(self.served) or set(self.last_calls.values()) != {1}:
            problems.append("the transport did not serve each strategy x record exactly once")
        for row in self.result.report.rows:
            pairs = [ref.mse_r2(rec.profile.released_pct, self.served[(row.strategy, rec.id)])
                     for rec in self.dataset]
            mse = float(np.mean([m for m, _ in pairs]))
            r2 = float(np.mean([r for _, r in pairs]))
            if row.n_records != n or row.n_parse_failures:
                problems.append(f"{row.strategy}: {row.n_records} records, "
                                f"{row.n_parse_failures} parse failures")
            elif not (ref.close(row.mse, mse) and ref.close(row.r2, r2)):
                problems.append(f"{row.strategy}: MSE/R^2 {row.mse!r}/{row.r2!r} "
                                f"!= recomputed {mse!r}/{r2!r}")
        if [row.strategy for row in self.result.report.rows] != list(STRATEGIES):
            problems.append("report rows are not the five strategies in order")

        weights, scales = ref.retrieval_weights(self.matrix, self.release[:, 4])   # 1 hr
        for rec in self.dataset:
            query = self.matrix[self.ids.index(rec.id)]
            want_ids, want_scores = ref.top_k(self.ids, self.matrix, weights, scales, query,
                                              RAG_K + 1)
            hits = self.store.retrieve(rec.features, k=RAG_K + 1)
            if not ref.same_ranking([r.id for r, _ in hits], [s for _, s in hits],
                                    want_ids, want_scores):
                problems.append(f"retrieve({rec.id}) differs from brute force: "
                                f"{[r.id for r, _ in hits]} vs {want_ids}")
            examples = [i for i in want_ids if i != rec.id][:RAG_K]
            want_d50 = [float(self.matrix[self.ids.index(i), 0]) for i in examples]
            shown = self.rag_examples.get(rec.id)
            if shown is None or rec.features.d50_um in shown or shown != want_d50:
                problems.append(f"RAG examples for {rec.id}: {shown} vs {want_d50}")
        return problems


ENTRY = "import sys; from formukit.cli import main; sys.exit(main())"


class CliSession(Workload):
    """A fixed sequence of formukit commands, one fresh interpreter each."""

    NESTED_DEPTH = 1000

    def setup(self):
        rng = np.random.default_rng([self.seed, 4])
        wd = self.workdir
        n = 40 if self.smoke else 200
        matrix, release = synthetic_records(rng, n)
        self.store_ids = [f"cli-{i:03d}" for i in range(n)]
        self.store_d50 = matrix[:, 0]
        with open(wd / "records.jsonl", "w", encoding="utf-8") as fh:
            for rid, row, rel in zip(self.store_ids, matrix, release):
                obj = {"id": rid, **dict(zip(ref.FEATURES, map(float, row))),
                       "profile": [[float(t), float(v)] for t, v in zip(ref.GRID_HR, rel)],
                       "provenance": "simulated", "source": "benchmark"}
                fh.write(json.dumps(obj) + "\n")
        self.query_d50 = _log_uniform(rng, 30.0, 250.0)
        self.sim = (_log_uniform(rng, 30.0, 250.0), float(rng.uniform(1.3, 1.8)))
        powder = dict(zip(ref.FEATURES, map(float, matrix[0])))
        powder["d50_um"] = _log_uniform(rng, 30.0, 250.0)
        (wd / "powder.json").write_text(json.dumps(powder), encoding="utf-8")
        reference_curve = ref.closed_form_release(*ref.lognormal_bins(self.sim[0], 1.5, 8),
                                                  ref.GRID_HR, **ref.HCTZ)
        fine_grid = np.linspace(0.0, 6.0, 49)
        predicted = np.interp(fine_grid, ref.GRID_HR, reference_curve) * rng.uniform(0.8, 1.1)
        predicted = np.clip(predicted + rng.normal(0.0, 1.0, fine_grid.size), 0.0, 100.0)
        predicted[0] = 0.0
        self.eval_ref, self.eval_pred = reference_curve, (fine_grid, predicted)
        _write_csv(wd / "ref.csv", ref.GRID_HR, reference_curve)
        _write_csv(wd / "pred.csv", fine_grid, predicted)
        (wd / "nested.txt").write_text("{" * self.NESTED_DEPTH + "}" * self.NESTED_DEPTH,
                                       encoding="utf-8")
        root = Path(__file__).resolve().parent.parent
        self.bundled = root / "src" / "formukit" / "data" / "seed_records.json"

        self.commands = [
            ("store_ingest", ["store", "ingest", "--file", "records.jsonl",
                              "--store", "{store}"], 0),
            ("store_list", ["store", "list", "--store", "{store}"], 0),
            ("store_retrieve", ["store", "retrieve", "--store", "{store}",
                                "--d50", repr(self.query_d50), "-k", "3"], 0),
            ("simulate", ["simulate", "--d50", repr(self.sim[0]), "--geo-sigma", repr(self.sim[1]),
                          "--n-bins", "20", "--rpm", "0", "--sink"], 0),
            ("predict", ["predict", "--strategy", "rag", "--backend", "mock",
                         "--input", "powder.json", "--store", "{store}"], 0),
            ("bench", ["bench", "--dataset", str(self.bundled), "--backend", "mock"], 0),
            ("eval", ["eval", "--reference", "ref.csv", "--predicted", "pred.csv"], 0),
            # Should exit 4 with a one-line error; the response parser
            # recurses once per nesting level, so today it dies with a
            # traceback. Counted as failed in every pass until fixed.
            ("eval_nested", ["eval", "--reference", "ref.csv", "--predicted", "nested.txt"], 4),
        ]
        self.outputs = {}
        self.codes_ok = True
        self.ops = [(name, self._op(name, argv, code)) for name, argv, code in self.commands]

    def begin_pass(self, index):
        self.pass_id = f"p{index}"
        shutil.rmtree(self.workdir / "out", ignore_errors=True)
        for old in self.workdir.glob("store-*.jsonl"):
            old.unlink()

    def warm_up(self):
        self.begin_pass(-1)
        self.ops[0][1]()

    def _op(self, name, argv, code):
        def run():
            store = f"store-{self.pass_id}.jsonl"
            run_id = f"{self.pass_id}-{name}"
            args = [a.format(store=store) for a in argv]
            if args[0] != "store":
                args += ["--output-dir", "out", "--run-id", run_id]
            with self.span(f"cli.{name}"):
                proc = subprocess.run([sys.executable, "-c", ENTRY, *args], cwd=self.workdir,
                                      capture_output=True, text=True, timeout=170)
            self.outputs[name] = (proc, self.workdir / "out" / run_id)
            if name == "eval_nested":
                ok = proc.returncode == code and len(proc.stderr.strip().splitlines()) == 1
                return 1, 0 if ok else 1
            if proc.returncode != code:
                self.codes_ok = False
            return 1, 0
        return run

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def check(self):
        problems = []
        if not self.codes_ok:
            problems.append("a command exited with an undocumented code")
        out = {name: proc for name, (proc, _) in self.outputs.items()}
        run_dir = {name: path for name, (_, path) in self.outputs.items()}
        n = len(self.store_ids)
        if f"ingested {n} record(s)" not in out["store_ingest"].stdout:
            problems.append("store ingest did not report every record")
        if out["store_list"].stdout.strip().splitlines()[-1] != f"{n} record(s)":
            problems.append("store list count is wrong")

        # A d50-only query: the weight renormalises to d50 alone, scaled by its MAD.
        mad = float(np.median(np.abs(self.store_d50 - np.median(self.store_d50))))
        scores = np.exp(-np.abs(self.query_d50 - self.store_d50) / mad)
        want = sorted(range(n), key=lambda i: (-scores[i], self.store_ids[i]))[:3]
        got = [line.split()[1] for line in out["store_retrieve"].stdout.splitlines()[1:]]
        if got != [self.store_ids[i] for i in want]:
            problems.append(f"store retrieve ranking {got} differs from brute force")

        times, released = ref.read_profile_csv(run_dir["simulate"] / "profile.csv")
        exact = ref.closed_form_release(*ref.lognormal_bins(*self.sim, 20), times, **ref.HCTZ)
        err = float(np.max(np.abs(released - exact)))
        if err > CLOSED_FORM_TOL_PP:
            problems.append(f"simulate --rpm 0 --sink is off the closed form by {err:.3g} pp")
        self.extra["closed_form_err_pp"] = err

        times, released = ref.read_profile_csv(run_dir["predict"] / "profile.csv")
        problems += [f"predict: {p}" for p in ref.profile_properties(times, released, 100.0)]
        if len((run_dir["predict"] / "transcript.jsonl").read_text().splitlines()) != 1:
            problems.append("predict: expected one transcript line")

        problems += self._check_bench(run_dir["bench"])

        metrics = json.loads((run_dir["eval"] / "eval.json").read_text())
        mse, r2 = ref.mse_r2(self.eval_ref, np.interp(ref.GRID_HR, *self.eval_pred))
        if not (ref.close(metrics["mse_pct2"], mse) and ref.close(metrics["r_squared"], r2)):
            problems.append(f"eval: {metrics} vs recomputed MSE {mse!r}, R^2 {r2!r}")
        return problems

    def _check_bench(self, run_dir):
        problems = []
        bundled = json.loads(self.bundled.read_text(encoding="utf-8"))["records"]
        measured = {r["id"]: dict((float(t), float(v)) for t, v in r["Output"]["data"])
                    for r in bundled}
        rows = {}
        with open(run_dir / "residuals.csv", encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                strategy, rid, t, _, predicted, _ = line.strip().split(",")
                rows.setdefault(strategy, {}).setdefault(rid, []).append(
                    (measured[rid][float(t)], float(predicted)))
        report = json.loads((run_dir / "report.json").read_text())["rows"]
        if [r["strategy"] for r in report] != list(STRATEGIES):
            problems.append("bench: report rows are not the five strategies")
        for row in report:
            per_record = [ref.mse_r2(*zip(*pts)) for pts in rows.get(row["strategy"], {}).values()]
            if len(per_record) != len(bundled):
                problems.append(f"bench {row['strategy']}: {len(per_record)} records scored")
                continue
            mse = float(np.mean([m for m, _ in per_record]))
            r2 = float(np.mean([r for _, r in per_record]))
            if not (ref.close(row["mse_pct2"], mse) and ref.close(row["r_squared"], r2)):
                problems.append(f"bench {row['strategy']}: {row['mse_pct2']!r}/{row['r_squared']!r}"
                                f" vs recomputed {mse!r}/{r2!r}")
        transcripts = (run_dir / "transcripts.jsonl").read_text().splitlines()
        if len(transcripts) != len(STRATEGIES) * len(bundled):
            problems.append(f"bench: {len(transcripts)} transcript lines")
        return problems


def _write_csv(path, times, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time_hr,released_pct\n")
        for t, v in zip(times, values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")


class ForwardInverse(Workload):
    """The solver-bound uses of the paper: the forward sweep, then one
    log-normal and one free-bin design, in every pass. One workload rather
    than two, so that each run can be long enough to be steady (see README)."""

    def setup(self):
        self.parts = [part(self.seed, self.workdir, self.smoke, self.tracer)
                      for part in (ForwardSweep, InverseDesign)]
        for part in self.parts:
            part.setup()
        self.ops = [op for part in self.parts for op in part.ops]

    def check(self):
        problems = [p for part in self.parts for p in part.check()]
        for part in self.parts:
            self.extra.update(part.extra)
        return problems


WORKLOADS = {
    "forward_inverse": ForwardInverse,
    "strategy_bench": StrategyBench,
    "cli_session": CliSession,
}
