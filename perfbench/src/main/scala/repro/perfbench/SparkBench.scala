package repro.perfbench

import java.io.File

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.automaton.{Dfa, Regex}
import repro.core.RapqEngine
import repro.spark.SparkIncrementalRpq
import repro.stream.Sgt

/** The `spark.*` layer metrics, measured in the traced run of `yago-delete`.
  * A round feeds one Yago-like slice, micro-batch after micro-batch, to a
  * fresh `SparkIncrementalRpq`; round `r` runs on the slice generated for
  * `(seed, firstRound + r)`. After one unchecked warm-up round, each of
  * [[Rounds]] rounds is timed and checked: an operation is one micro-batch,
  * and it fails unless the maintained results equal both the benchmark's
  * model and a `RapqEngine` fed the same tuples.
  */
object SparkBench {

  /** Checked rounds after the warm-up. */
  val Rounds = 2

  private def startSession(cores: Int, workDir: File): SparkSession =
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.local.dir", new File(workDir, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(workDir, "spark-warehouse").getPath)
      .getOrCreate()

  /** One slice as DataFrames, with its reference results per batch: the
    * model's BFS, and a `RapqEngine` fed the same tuples.
    */
  private final class Prepared(val batches: Array[Array[Sgt]], val frames: Array[DataFrame],
                               val expected: Array[(Array[Long], Array[Long])])

  private def prepare(spark: SparkSession, w: Workloads.Micro, dfa: Dfa): Prepared = {
    import spark.implicits._
    val batches = w.tuples.grouped(w.batchSize).toArray
    val frames = batches.map(b => b.toSeq.map(t => (t.src, t.dst, t.label, t.ts)).toDF("src", "dst", "label", "ts"))
    val model = new Model.WindowModel(w.window)
    val checker = new RapqEngine(dfa, w.window, collectResults = false)
    val expected = batches.map { b =>
      b.foreach { t => model(t); checker.processTuple(t) }
      val ts = b.last.ts
      checker.forceExpiry(ts)
      (Model.rapq(model.edgesAt(ts), dfa), Model.packAll(checker.currentResults(ts)))
    }
    new Prepared(batches, frames, expected)
  }

  /** Runs the Spark layer with `cores` local cores and returns its metrics.
    * `spark.session_s` is the first SparkSession start of the JVM;
    * `spark.process_batch_s` and `spark.collect_fresh_s` are per round.
    */
  def layer(seed: Long, firstRound: Int, traced: Trace, tally: Tally, cores: Int,
            workDir: File): Seq[(String, Metric)] = {
    val first = Workloads.micro(seed, firstRound)
    val s0 = System.nanoTime()
    val spark = startSession(cores, workDir)
    val sessionNs = System.nanoTime() - s0
    traced.record(traced.id("spark.session"), -1, s0, s0 + sessionNs)
    try {
      spark.sparkContext.setLogLevel("ERROR")
      import spark.implicits._
      val dfa = Dfa.fromRegex(Regex.parse(first.query.pattern))
      Model.dfaDisagreement(first.query.pattern, dfa, maxLen = 5).foreach { word =>
        throw new IllegalStateException(s"${first.query.name}: DFA and regex disagree on ${word.mkString(" ")}")
      }
      Stats.log(s"${first.name}: $cores cores, ${first.batchSize} tuples a micro-batch")

      // records into `traced`, and checks, only when `checked`
      def round(p: Prepared, checked: Boolean): Unit = {
        val tr = if (checked) traced else new Trace
        val (batchId, procId, collId, checkId) =
          (tr.id("spark.batch"), tr.id("spark.process_batch"), tr.id("spark.collect_fresh"), tr.id("check"))
        val roundSpan = tr.open(tr.id("spark.round"), -1)
        val inc = new SparkIncrementalRpq(spark, dfa, first.window)
        p.batches.indices.foreach { j =>
          val t0 = System.nanoTime()
          val fresh = inc.processBatch(p.frames(j))
          val t1 = System.nanoTime()
          fresh.collect()
          val t2 = System.nanoTime()
          val b = tr.record(batchId, roundSpan, t0, t2, p.batches(j).length)
          tr.record(procId, b, t0, t1); tr.record(collId, b, t1, t2)
          if (checked) {
            val got = Model.packAll(inc.currentResults().as[(Long, Long)].collect())
            tr.record(checkId, b, t2, System.nanoTime())
            val (bfs, rapq) = p.expected(j)
            tally.record(java.util.Arrays.equals(got, bfs) && java.util.Arrays.equals(got, rapq),
              s"${first.name}: batch $j: Spark ${got.length} pairs, model ${bfs.length}, RapqEngine ${rapq.length}")
          }
        }
        tr.close(roundSpan)
      }

      round(prepare(spark, first, dfa), checked = false) // warm-up on round 0's slice
      (1 to Rounds).foreach(r => round(prepare(spark, Workloads.micro(seed, firstRound + r), dfa), checked = true))
      def perRound(name: String): Metric = Metric(traced.nanos(name) / 1e9 / Rounds, "s")
      Seq("spark.session_s"       -> Metric(sessionNs / 1e9, "s"),
          "spark.process_batch_s" -> perRound("spark.process_batch"),
          "spark.collect_fresh_s" -> perRound("spark.collect_fresh"))
    } finally spark.stop()
  }
}
