(** The engine abstraction every harness runs against: the workload
    driver, the chaos cycles and the workload bank.

    Both the unbundled kernel and the monolithic baseline expose this
    surface, so every experiment compares them on identical workloads.
    The constructors live next to the type they wrap: {!of_tc},
    {!of_kernel} and {!of_mono} here, [Index.engine] and
    [Branch.engine] beside indexes and branches. *)

type 'a outcome = [ `Ok of 'a | `Blocked | `Fail of string ]

module type S = sig
  type txn

  val begin_txn : unit -> txn

  val xid : txn -> int

  val is_active : txn -> bool

  val read : txn -> table:string -> key:string -> string option outcome

  val insert : txn -> table:string -> key:string -> value:string -> unit outcome

  val update : txn -> table:string -> key:string -> value:string -> unit outcome

  val delete : txn -> table:string -> key:string -> unit outcome

  val scan :
    txn -> table:string -> from_key:string -> limit:int ->
    (string * string) list outcome

  val commit : txn -> unit outcome

  val abort : txn -> reason:string -> unit

  val wakeups : unit -> int list

  val resolve_deadlock : unit -> int option
end

(* A bare TC as an engine: how a deployment (one TC fronting N
   partitioned DCs) runs the standard workloads.  The functor is there
   for the wrappers that reuse most of the TC surface ([Index.engine],
   [Branch.engine]): they include it and redefine what they wrap. *)
module Of_tc (X : sig
  val tc : Untx_tc.Tc.t
end) : S with type txn = Untx_tc.Tc.txn = struct
  module Tc = Untx_tc.Tc

  type txn = Tc.txn

  let begin_txn () = Tc.begin_txn X.tc

  let xid = Tc.xid

  let is_active = Tc.is_active

  let read txn ~table ~key = Tc.read X.tc txn ~table ~key

  let insert txn ~table ~key ~value = Tc.insert X.tc txn ~table ~key ~value

  let update txn ~table ~key ~value = Tc.update X.tc txn ~table ~key ~value

  let delete txn ~table ~key = Tc.delete X.tc txn ~table ~key

  let scan txn ~table ~from_key ~limit =
    Tc.scan X.tc txn ~table ~from_key ~limit

  let commit txn = Tc.commit X.tc txn

  let abort txn ~reason = Tc.abort X.tc txn ~reason

  let wakeups () = Tc.wakeups X.tc

  let resolve_deadlock () = Tc.resolve_deadlock X.tc
end

let of_tc tc : (module S) =
  (module Of_tc (struct
    let tc = tc
  end))

(* The kernel's own operations are passthroughs to its TC; only commit
   differs, taking the kernel's auto-checkpoint path. *)
let of_kernel (k : Kernel.t) : (module S) =
  (module struct
    include Of_tc (struct
      let tc = Kernel.tc k
    end)

    let commit txn = Kernel.commit k txn
  end)

let of_mono (m : Untx_baseline.Mono.t) : (module S) =
  (module struct
    module Mono = Untx_baseline.Mono

    type txn = Mono.txn

    let begin_txn () = Mono.begin_txn m

    let xid = Mono.xid

    let is_active = Mono.is_active

    let read txn ~table ~key = Mono.read m txn ~table ~key

    let insert txn ~table ~key ~value = Mono.insert m txn ~table ~key ~value

    let update txn ~table ~key ~value = Mono.update m txn ~table ~key ~value

    let delete txn ~table ~key = Mono.delete m txn ~table ~key

    let scan txn ~table ~from_key ~limit =
      Mono.scan m txn ~table ~from_key ~limit

    let commit txn = Mono.commit m txn

    let abort txn ~reason = Mono.abort m txn ~reason

    let wakeups () = Mono.wakeups m

    let resolve_deadlock () = Mono.resolve_deadlock m
  end)
