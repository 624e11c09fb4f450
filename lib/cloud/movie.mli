(** The cloud sharing scenario of Section 6.3 (Figure 2): an online
    movie site.

    Schema (all keys are strings; clustering is by key prefix):
    - [movies],   key ["m<mid>"]        — partitioned by movie across
      the movie DCs;
    - [reviews],  key ["m<mid>:u<uid>"] — clustered with the movie, so
      W1 reads all reviews of a movie from one DC;
    - [users],    key ["u<uid>"]        — on the user DC;
    - [myreviews], key ["u<uid>:m<mid>"] — a user-clustered copy of the
      user's reviews (a redundant physical index), so W4 reads one DC.

    Updater TCs own disjoint users (uid mod n); adding a review (W2)
    updates two DCs inside one TC-local transaction — no distributed
    commit.  The reader TC (W1) takes no locks: it uses dirty or
    versioned read-committed access to data updated by other TCs. *)

type t

val create :
  ?policy:Untx_kernel.Transport.policy ->
  ?seed:int ->
  ?counters:Untx_util.Instrument.t ->
  ?versioned:bool ->
  n_user_tcs:int ->
  n_movie_dcs:int ->
  unit ->
  t

val deploy : t -> Deploy.t

val movie_key : int -> string

val user_key : int -> string

val review_key : mid:int -> uid:int -> string

val seed_movies : t -> int -> unit
(** Insert movies 0..n-1 (committed, via updater TC 0's partitioned
    mapping). *)

val seed_users : t -> int -> unit

(** The four workloads of Section 6.3. *)

val w1_reviews_for_movie :
  t -> mid:int -> mode:[ `Committed | `Dirty ] -> (string * string) list
(** All reviews for one movie, read by the shared reader TC without
    locks. *)

val w2_add_review :
  t -> uid:int -> mid:int -> text:string -> (unit, string) result
(** One TC-local transaction spanning the movie DC and the user DC. *)

val w3_update_profile : t -> uid:int -> profile:string -> (unit, string) result

val w4_my_reviews : t -> uid:int -> (string * string) list
(** The user's own reviews from the user-clustered copy. *)

val crash_user_tc : t -> int -> unit
(** Crash+restart one updater TC; other TCs keep running (their data on
    shared DCs is untouched by the selective reset). *)

val messages_total : t -> int
