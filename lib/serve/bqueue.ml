(* Bounded blocking producer/consumer queue. See bqueue.mli. *)

type 'a t = {
  q : 'a Queue.t;
  capacity : int;
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable closed : bool;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Bqueue.create: capacity must be positive";
  { q = Queue.create ();
    capacity;
    mutex = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    closed = false }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let length t = with_lock t (fun () -> Queue.length t.q)

let push t x =
  with_lock t (fun () ->
      let rec go () =
        if t.closed then invalid_arg "Bqueue.push: closed"
        else if Queue.length t.q < t.capacity then (
          Queue.push x t.q;
          Condition.signal t.not_empty)
        else (Condition.wait t.not_full t.mutex; go ())
      in
      go ())

let pop t =
  with_lock t (fun () ->
      let rec go () =
        match Queue.take_opt t.q with
        | Some x -> Condition.signal t.not_full; Some x
        | None ->
            if t.closed then None
            else (Condition.wait t.not_empty t.mutex; go ())
      in
      go ())

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.not_empty;
      Condition.broadcast t.not_full)
