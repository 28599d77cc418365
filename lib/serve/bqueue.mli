(** Bounded blocking multi-producer/consumer queue.

    The seam between an accept loop and its worker pool ({!Serve}'s
    session queue) and between query domains and the access-log writer
    ({!Access_log}): a full queue blocks its producer, so nothing pushed
    is ever lost, and a closed queue drains before its consumers see
    [None].

    All operations are thread-safe; blocking uses a mutex + condition
    pair, no spinning. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] on non-positive capacity. *)

val push : 'a t -> 'a -> unit
(** Enqueue, blocking while the queue is full. Raises [Invalid_argument]
    if the queue is closed (also when it closes while the push waits). *)

val pop : 'a t -> 'a option
(** Dequeue, blocking while empty; [None] once the queue is closed and
    drained. *)

val close : 'a t -> unit
(** No further pushes; blocked consumers drain and then see [None]. *)

val length : 'a t -> int
