(* Per-link epoch/seq contract sessions, factored out of the TC's
   control-pending table and the DC's control-idempotence table so the
   replication channel is not a third hand-rolled copy.

   A session pairs a Sender (unique densely-increasing seqs under an
   epoch, cached frames resent on the one Backoff clock, acks matched
   against pendings, each reply landing in its post's ticket) with a
   Receiver (stale-epoch discard, newer-epoch adoption, strictly
   in-order apply with out-of-order buffering, and a bounded memo of
   replies so duplicates are answered without re-applying).

   The module is deliberately counter-free: callers translate the
   returned outcomes into their own Instrument names ("tc.control_*",
   "dc.control_*", "repl.*"), keeping accounting where it is read. *)

module Backoff = struct
  let first = 4

  let cap = 64

  let max_retries = 32

  type t = {
    mutable age : int; (* stalled rounds since the last (re)send *)
    mutable interval : int; (* rounds to wait before the next resend *)
    mutable retries : int;
  }

  let create () = { age = 0; interval = first; retries = 0 }

  let retries c = c.retries

  let tick c =
    c.age <- c.age + 1;
    if c.age < c.interval then `Wait
    else if c.retries >= max_retries then `Expired
    else begin
      c.age <- 0;
      c.retries <- c.retries + 1;
      c.interval <- Stdlib.min (2 * c.interval) cap;
      `Resend
    end
end

let max_stalls = 100_000

module Sender = struct
  type 'reply ticket = {
    seq : int;
    frame : string;
    clock : Backoff.t;
    mutable reply : 'reply option;
  }

  type 'reply t = {
    mutable epoch : int;
    mutable next_seq : int;
    pending : (int, 'reply ticket) Hashtbl.t;
  }

  let create () = { epoch = 1; next_seq = 1; pending = Hashtbl.create 16 }

  let epoch t = t.epoch

  let unacked t = Hashtbl.length t.pending

  (* Allocate the next seq, cache the encoded frame (every resend puts
     identical bytes on the wire), send.  The ticket is the pending
     itself: its reply slot fills when the ack arrives. *)
  let post t ~encode ~send =
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let frame = encode ~epoch:t.epoch ~seq in
    let tk = { seq; frame; clock = Backoff.create (); reply = None } in
    Hashtbl.replace t.pending seq tk;
    send frame;
    tk

  let seq tk = tk.seq

  let reply tk = tk.reply

  (* Match an acknowledgement against the session: stale epochs and
     duplicate acks return [false]; a first ack retires the pending and
     fills its ticket. *)
  let ack t ~epoch ~seq reply =
    if epoch <> t.epoch then false
    else
      match Hashtbl.find_opt t.pending seq with
      | None -> false
      | Some tk ->
        Hashtbl.remove t.pending seq;
        tk.reply <- Some reply;
        true

  let tick t ~on_resend ~on_timeout =
    Hashtbl.iter
      (fun _ tk ->
        match Backoff.tick tk.clock with
        | `Wait -> ()
        | `Expired -> on_timeout ~seq:tk.seq ~retries:(Backoff.retries tk.clock)
        | `Resend -> on_resend ~seq:tk.seq tk.frame)
      t.pending

  (* Drop all session state (the pendings died with a crash, or a new
     epoch voids them).  Returns how many pendings were dropped so the
     caller can keep its unacked gauge honest. *)
  let clear t =
    let n = Hashtbl.length t.pending in
    Hashtbl.reset t.pending;
    n

  (* Open a fresh session: frames of the old epoch still in flight
     (either direction) become stale, and the receiver resets its
     applied-sequence state on first contact. *)
  let new_epoch t =
    t.epoch <- t.epoch + 1;
    t.next_seq <- 1;
    clear t
end

module Receiver = struct
  type ('msg, 'reply) t = {
    mutable epoch : int;
    mutable applied : int; (* highest seq applied, contiguous *)
    replies : (int, 'reply) Hashtbl.t; (* seq -> memoized reply *)
    buffer : (int, 'msg) Hashtbl.t; (* out-of-order arrivals *)
  }

  (* Keep memoized replies for a window of recent seqs: a duplicate can
     only be a recently-resent frame, and the sender stops resending a
     seq once any reply for it arrives. *)
  let memo_window = 1024

  let create () =
    {
      epoch = 0;
      (* so the sender's first real epoch (1+) is adopted on contact *)
      applied = 0;
      replies = Hashtbl.create 32;
      buffer = Hashtbl.create 8;
    }

  let epoch t = t.epoch

  let applied t = t.applied

  type 'reply outcome =
    | Stale  (** dead epoch: drop, no reply (nothing awaits it) *)
    | Replayed of 'reply  (** duplicate, answered from the memo *)
    | Buffered  (** ahead of turn: parked, no reply until the gap fills *)
    | Applied of 'reply  (** applied in turn; buffered successors drained *)

  (* The receiving half of the contract.  [apply seq msg] runs the
     caller's state change for an in-turn message and returns its reply;
     it also runs for each buffered successor the message releases,
     whose replies are only memoized (the sender's resend of each will
     collect them via the duplicate path).  [fallback] answers a
     duplicate whose memo slid out of the window — long since settled. *)
  let handle t ~epoch ~seq msg ~apply ~fallback =
    if epoch < t.epoch then Stale
    else begin
      if epoch > t.epoch then begin
        (* The link restarted: sequence numbering begins again at 1 and
           everything memoized for the old session is void. *)
        t.epoch <- epoch;
        t.applied <- 0;
        Hashtbl.reset t.replies;
        Hashtbl.reset t.buffer
      end;
      if seq <= t.applied then
        Replayed
          (match Hashtbl.find_opt t.replies seq with
          | Some r -> r
          | None -> fallback)
      else if seq > t.applied + 1 then begin
        Hashtbl.replace t.buffer seq msg;
        Buffered
      end
      else begin
        let run seq msg =
          let r = apply seq msg in
          (* [apply] may reset wider component state (a complete
             restart); the session record survives it, so this update
             lands on live state. *)
          t.applied <- seq;
          Hashtbl.replace t.replies seq r;
          Hashtbl.remove t.replies (seq - memo_window);
          r
        in
        let first = run seq msg in
        let rec drain () =
          let next = t.applied + 1 in
          match Hashtbl.find_opt t.buffer next with
          | Some msg ->
            Hashtbl.remove t.buffer next;
            ignore (run next msg);
            drain ()
          | None -> ()
        in
        drain ();
        Applied first
      end
    end
end
