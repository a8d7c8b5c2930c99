"""Known-bad: query text crosses a function boundary before leaking.

``handle`` receives the query under a source parameter name and hands
it to ``forward`` under a neutral name (``message``); no one function
holds both a source and a sink, so only a path through the call
(``taint-interprocedural``) reports the flow.
"""


def forward(message):
    print(message)


def handle(query):
    forward(query)
