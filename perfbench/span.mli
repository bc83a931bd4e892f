(** Layer spans, recorded from the benchmark's side of each call.

    [with_ ~cat name f] runs [f]; while recording is on it also keeps a
    span (name, layer, start, end, parent span) in memory. With recording
    off it is a plain call, so untraced timings carry no tracing work. *)

type span = {
  id : int;
  name : string;  (** the called function, e.g. ["Graph.validate"] *)
  cat : string;  (** the layer, e.g. ["Graph"] *)
  parent : int;  (** enclosing span's id; 0 at top level *)
  t0 : float;  (** seconds, monotonic *)
  t1 : float;
}

val set_recording : bool -> unit
val with_ : cat:string -> string -> (unit -> 'a) -> 'a

(** Recorded spans, in completion order. *)
val spans : unit -> span list

(** Summed duration (ms) and number of the spans named [name]. *)
val total_ms : string -> float

val count : string -> int

(** [total_ms name / count name], or 0 when there is none. *)
val mean_ms : string -> float

(** Write every span as Chrome trace-event JSON (complete ["X"] events,
    microseconds from the first span; span and parent ids in [args]). *)
val write_chrome : string -> unit
