package repro.perfbench

import java.io.{BufferedWriter, File, FileWriter}

import scala.collection.mutable

/** In-memory span recorder for the traced run. A span has a name, a start,
  * an end, the span that caused it, and one extra figure (`aux`, e.g. the
  * engine's expiry time accrued inside it). Spans are kept in primitive
  * arrays and written out once, when the run ends.
  */
final class Trace {
  private val names = mutable.ArrayBuffer.empty[String]
  private val ids   = mutable.HashMap.empty[String, Int]

  private var n      = 0
  private var name   = new Array[Int](1 << 16)
  private var parent = new Array[Int](1 << 16)
  private var start  = new Array[Long](1 << 16)
  private var end    = new Array[Long](1 << 16)
  private var aux    = new Array[Long](1 << 16)

  def id(spanName: String): Int = ids.getOrElseUpdate(spanName, { names += spanName; names.size - 1 })

  /** Records a finished span; returns its id (the root parent is -1). */
  def record(nameId: Int, parentId: Int, t0: Long, t1: Long, extra: Long = 0L): Int = {
    if (n == name.length) grow()
    name(n) = nameId; parent(n) = parentId; start(n) = t0; end(n) = t1; aux(n) = extra
    n += 1
    n - 1
  }

  /** Opens a span whose end is filled in by [[close]]. */
  def open(nameId: Int, parentId: Int): Int = record(nameId, parentId, System.nanoTime(), 0L)
  def close(span: Int, extra: Long = 0L): Unit = { end(span) = System.nanoTime(); aux(span) += extra }

  private def grow(): Unit = {
    val m = name.length * 2
    name = java.util.Arrays.copyOf(name, m); parent = java.util.Arrays.copyOf(parent, m)
    start = java.util.Arrays.copyOf(start, m); end = java.util.Arrays.copyOf(end, m)
    aux = java.util.Arrays.copyOf(aux, m)
  }

  def size: Int = n

  /** Total duration (ns) of the spans with this name. */
  def nanos(spanName: String): Long = fold(spanName)((i: Int) => end(i) - start(i))

  /** Total `aux` of the spans with this name. */
  def auxSum(spanName: String): Long = fold(spanName)((i: Int) => aux(i))

  private def fold(spanName: String)(f: Int => Long): Long = ids.get(spanName) match {
    case None => 0L
    case Some(id) =>
      var s = 0L
      var i = 0
      while (i < n) { if (name(i) == id) s += f(i); i += 1 }
      s
  }

  /** Tab-separated `id parent name start_ns end_ns aux`, one span a line. */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val w = new BufferedWriter(new FileWriter(file), 1 << 16)
    try {
      w.write("id\tparent\tname\tstart_ns\tend_ns\taux\n")
      var i = 0
      while (i < n) {
        w.write(s"$i\t${parent(i)}\t${names(name(i))}\t${start(i)}\t${end(i)}\t${aux(i)}\n")
        i += 1
      }
    } finally w.close()
  }
}
