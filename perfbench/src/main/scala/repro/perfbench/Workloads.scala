package repro.perfbench

import repro.data.{Queries, StreamGen}
import repro.stream.{Sgt, WindowSpec}

/** The benchmark's named workloads. Every input is generated in advance from
  * the run's seed by `repro.data.StreamGen`; the program only ever sees the
  * generated tuples. Each round of a run draws its own stream, generated for
  * `(seed, round)`.
  */
object Workloads {

  sealed trait Semantics
  case object Arbitrary extends Semantics // RapqEngine
  case object Simple    extends Semantics // RspqEngine

  /** A workload run by one of the core engines: every query makes one pass
    * over the same tuples, each pass with a fresh engine.
    */
  final case class Core(name: String, semantics: Semantics, tuples: Array[Sgt], window: WindowSpec,
                        queries: Seq[Queries.Q])

  /** The input of the Spark layer: one query over a slice cut into micro-batches. */
  final case class Micro(name: String, tuples: Array[Sgt], window: WindowSpec, query: Queries.Q,
                         batchSize: Int)

  val names: Seq[String] = Seq("so-rapq", "yago-delete", "so-rspq")

  /** Tuples per micro-batch of the Spark layer. */
  val BatchSize = 100

  private def pick(qs: Seq[Queries.Q], names: String*): Seq[Queries.Q] =
    names.map(n => qs.find(_.name == n).get)

  private def streamSeed(seed: Long, round: Int): Long = seed * 1000 + round

  // SO-like windows keep the paper's |W|/β = 30 (1 month / 1 day).
  private def soWindow(size: Int): WindowSpec = WindowSpec(size = size, slide = size / 30)

  def core(name: String, seed: Long, round: Int): Core = {
    val s = streamSeed(seed, round)
    name match {
      case "so-rapq" =>
        Core(name, Arbitrary, StreamGen.soLike(nVertices = 150, nEdges = 3000, seed = s).toArray,
          soWindow(750), pick(Queries.so, "Q9", "Q6", "Q11"))
      case "yago-delete" =>
        // |W| = n/4 and β = |W|/10, BenchConfig.yago's proportions
        val base = StreamGen.yagoLike(nEntities = 700, nEdges = 7000, seed = s)
        Core(name, Arbitrary, StreamGen.withDeletions(base, 0.10, seed = -s - 1).toArray,
          WindowSpec(size = 1750, slide = 175), Queries.yago)
      case "so-rspq" =>
        Core(name, Simple, StreamGen.soLike(nVertices = 200, nEdges = 3000, seed = s).toArray,
          soWindow(750), pick(Queries.so, "Q1", "Q11"))
      case other => throw new IllegalArgumentException(s"not a core workload: $other")
    }
  }

  def micro(seed: Long, round: Int): Micro =
    Micro("spark-slice", StreamGen.yagoLike(nEntities = 400, nEdges = 300, seed = streamSeed(seed, round)).toArray,
      WindowSpec(size = 200, slide = 20), pick(Queries.yago, "Q9").head, BatchSize)
}
