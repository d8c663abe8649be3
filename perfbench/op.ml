(* One operation of a closed-loop session: its kind, a timed part, and an
   untimed check of what the timed part returned. *)

type kind = Integrate | Query | Feedback | Save | Load

let kinds = [ Integrate; Query; Feedback; Save; Load ]

let index = function Integrate -> 0 | Query -> 1 | Feedback -> 2 | Save -> 3 | Load -> 4

let name = function
  | Integrate -> "integrate"
  | Query -> "query"
  | Feedback -> "feedback"
  | Save -> "save"
  | Load -> "load"

type verdict =
  | Pass
  | Failed of string  (** the call returned [Error] or raised *)
  | Wrong of string  (** the call returned, but its result failed a check *)

type t = {
  kind : kind;
  query : string option;  (** the XPath text a query op compiles *)
  exec : unit -> unit -> verdict;
      (** [exec ()] is the timed call; the closure it returns checks the
          result outside the timed interval *)
}

exception Failed_call of string

exception Wrong_answer of string

let fail fmt = Fmt.kstr (fun s -> raise (Failed_call s)) fmt

let wrong fmt = Fmt.kstr (fun s -> raise (Wrong_answer s)) fmt

let ok pp = function Ok v -> v | Error e -> fail "%a" pp e

let ok_string = function Ok v -> v | Error e -> fail "%s" e

(* [make kind call check] runs [call] timed and [check] on its result
   untimed; an exception from either side becomes the op's verdict. *)
let make ?query kind call check =
  let exec () =
    match call () with
    | exception e -> fun () -> Failed (Printexc.to_string e)
    | r -> (
        fun () ->
          match check r with
          | () -> Pass
          | exception Failed_call m -> Failed m
          | exception Wrong_answer m -> Wrong m
          | exception e -> Wrong (Printexc.to_string e))
  in
  { kind; query; exec }

(* Input properties recorded by the checks, read by the report. *)
module Probe = struct
  let answers = ref 0

  let doc_worlds : float list ref = ref []

  let nodes_out = ref 0

  let reset () =
    answers := 0;
    doc_worlds := [];
    nodes_out := 0
end
