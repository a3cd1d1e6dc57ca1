package repro.perfbench

import java.io.File

/** Entry point of the benchmark.
  *
  * {{{
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir> [--fork <k>]
  *   Main --fingerprint --seed <n>
  * }}}
  *
  * A run prints, as its last line, one JSON object with `correct`,
  * `attempted`, `failed` and `metrics`: the end-to-end metrics untraced, the
  * per-layer metrics with `--trace 1`. Progress goes to standard error.
  * Fork `k` of a run draws its rounds' streams apart from the other forks'.
  */
object Main {

  /** Per-layer metrics in `BENCHMARK.json` order, with their units. Every
    * traced run prints all of them; a layer the workload does not run
    * reads 0. The Spark layer runs in the traced run of [[SparkWorkload]].
    */
  val PerLayer: Seq[(String, String)] = Seq(
    "automaton.register_ms" -> "ms", "automaton.containment_ms" -> "ms",
    "stream.maintain_s" -> "s", "stream.out_scan_ns_per_edge" -> "ns", "stream.in_scan_ns_per_edge" -> "ns",
    "core.rapq.insert_s" -> "s", "core.rapq.slide_expiry_s" -> "s", "core.rapq.delete_s" -> "s",
    "core.rapq.delete_expiry_s" -> "s", "core.rapq.expiry_runs" -> "count", "core.rapq.nodes" -> "count",
    "core.rapq.trees" -> "count", "core.rapq.emissions" -> "count", "core.rapq.distinct_per_emission" -> "ratio",
    "core.rspq.insert_s" -> "s", "core.rspq.expiry_s" -> "s", "core.rspq.conflicts" -> "count",
    "core.rspq.nodes" -> "count", "core.rspq.emissions" -> "count", "core.rspq.distinct_per_emission" -> "ratio",
    "spark.session_s" -> "s", "spark.process_batch_s" -> "s", "spark.collect_fresh_s" -> "s",
    "trace.overhead_pct" -> "%",
  )
  /** The workload whose traced run also runs the Spark layer, on slices
    * with its label mix.
    */
  val SparkWorkload = "yago-delete"

  def main(args: Array[String]): Unit = {
    val opts = args.sliding(2, 1).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, sys.error(s"missing --$k"))
    val seed = opt("seed").toLong
    if (args.contains("--fingerprint")) { fingerprint(seed); return }

    val workload = opt("workload")
    require(Workloads.names.contains(workload),
      s"unknown workload $workload (one of ${Workloads.names.mkString(", ")})")
    val seconds = opt("seconds").toDouble
    val firstRound = 100 * opts.getOrElse("fork", "0").toInt
    val traced = opt("trace") match {
      case "0" => false
      case "1" => true
      case other => sys.error(s"--trace must be 0 or 1, not $other")
    }
    val workDir = new File(opt("work-dir"))
    val trace = if (traced) Some(new Trace) else None

    val outcome = CoreBench.run(workload, seed, firstRound, seconds, trace)

    val printed = trace match {
      case None => outcome
      case Some(tr) =>
        val tally = new Tally
        val spark =
          if (workload == SparkWorkload) {
            val cores = math.min(4, Runtime.getRuntime.availableProcessors())
            SparkBench.layer(seed, firstRound, tr, tally, cores, workDir)
          } else Nil
        val file = new File(workDir, s"trace/$workload-seed$seed.tsv")
        tr.write(file)
        Stats.log(s"${tr.size} spans written to $file")
        val got = (outcome.metrics ++ spark).toMap
        Outcome(outcome.correct && tally.failed == 0, outcome.attempted + tally.attempted,
          outcome.failed + tally.failed,
          PerLayer.map { case (k, unit) => k -> got.getOrElse(k, Metric(0.0, unit)) })
    }
    println(printed.json)
  }

  /** Deterministic counts of one pass per (workload, query) — Δ nodes,
    * trees, emissions and expiry runs at the end of the stream, and the
    * result-set size after a final expiry pass — as JSON. RSPQ conflict
    * counts are listed apart, as they vary from run to run.
    */
  private def fingerprint(seed: Long): Unit = {
    val rows = Seq.newBuilder[String]
    val conflicts = Seq.newBuilder[String]
    Seq("so-rapq", "yago-delete", "so-rspq").foreach { name =>
      val w = Workloads.core(name, seed, 0)
      CoreBench.fingerprint(w).foreach { case (q, c, size) =>
        val runs = if (w.semantics == Workloads.Arbitrary) c.expiryRuns.toString else "null"
        rows += s"""    {"workload": "$name", "query": "$q", "nodes": ${c.nodes}, "trees": ${c.trees}, """ +
          s""""emissions": ${c.emissions}, "expiry_runs": $runs, "results": $size}"""
        if (w.semantics == Workloads.Simple)
          conflicts += s"""    {"workload": "$name", "query": "$q", "conflicts": ${c.conflicts}}"""
      }
    }
    println(s"""{\n  "seed": $seed,\n  "counts": [\n${rows.result().mkString(",\n")}\n  ],\n""" +
      s"""  "nondeterministic": [\n${conflicts.result().mkString(",\n")}\n  ]\n}""")
  }
}
